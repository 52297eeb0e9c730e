package cm

import "contribmax/internal/magic"

// SetGroundingHook installs fn as the hook every completed Magic^S
// grounding is passed to; nil removes it.
func SetGroundingHook(fn func(*magic.Grounding)) { groundingBuilt = fn }
