package cm

import (
	"contribmax/internal/magic"
	"contribmax/internal/obs"
	"contribmax/internal/planner"
)

// SetGroundingHook installs fn as the hook every completed Magic^S
// grounding is passed to; nil removes it.
func SetGroundingHook(fn func(*magic.Grounding)) { groundingBuilt = fn }

// SetSolvePlanCache makes every solve plan through one solve-wide plan
// cache (on, the default) or plan each compilation without a cache (off).
func SetSolvePlanCache(on bool) {
	newPlanner = planner.New
	if !on {
		newPlanner = func(*obs.Registry) *planner.Planner { return nil }
	}
}
