package magic

// Epoch and SetEpoch read and set a propagator's epoch, so a test can
// force it to wrap.
func (p *Propagator) Epoch() uint32     { return p.epoch }
func (p *Propagator) SetEpoch(e uint32) { p.epoch = e }

// RuleOf returns the rule of instantiation i, so a test can check where
// Grounding.Seed points.
func (g *Grounding) RuleOf(i int32) int { return int(g.rule[i]) }
