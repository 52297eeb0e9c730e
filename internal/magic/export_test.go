package magic

// RuleOf returns the rule of instantiation i, so a test can check where
// Grounding.Seed points.
func (g *Grounding) RuleOf(i int32) int { return int(g.rule[i]) }
