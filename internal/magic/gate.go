package magic

import (
	"hash/fnv"

	"contribmax/internal/db"
	"contribmax/internal/engine"
)

// HashGate implements Magic^S CM's in-construction sampling (Section
// IV-B2): each *origin-rule* instantiation fires with probability
// w(origin), and the decision is shared by every modified rule generated
// from that origin rule. Magic and seed rules always fire.
//
// Unlike a sequential-draw gate, the verdict is a pure function of
// (seed, origin rule, origin-variable bindings): a seeded hash of the
// instantiation key is mapped to a uniform [0, 1) value and compared to
// w(origin). That makes the gate order-independent and safe for
// concurrent use — and no memoization table is needed: re-deriving the
// same instantiation recomputes the same verdict. Propagator draws the same verdicts over a
// Grounding through the same hash (gateRule).
//
// A HashGate represents one random execution; use a fresh seed per RR set
// so draws are independent across RR sets.
type HashGate struct {
	rules []hashGateRule
}

type hashGateRule struct {
	sample bool // false: always fire (magic/seed, or prob == 1)
	prob   float64
	// originH pre-mixes the run seed with the origin rule's label, so
	// instantiations of the same origin hash identically across all the
	// modified rules derived from it.
	originH uint64
	// slots[i] is the engine variable-slot index holding the value of the
	// origin rule's i-th variable.
	slots []int
}

// NewHashGate builds a gate for the transformed program t as compiled by
// eng (the engine must have been constructed from t.Program), seeded for
// one random execution.
func NewHashGate(t *Transformed, eng *engine.Engine, seed uint64) *HashGate {
	gr := gateRules(t)
	g := &HashGate{rules: make([]hashGateRule, len(t.Meta))}
	for i, m := range t.Meta {
		if !gr[i].sample {
			continue
		}
		names := eng.RuleVarNames(i)
		pos := map[string]int{}
		for j, n := range names {
			pos[n] = j
		}
		slots := make([]int, len(m.OriginVars))
		for j, v := range m.OriginVars {
			// Every origin variable occurs in the modified rule (its body
			// embeds the full origin body), so the lookup always succeeds
			// for valid transforms.
			slots[j] = pos[v]
		}
		g.rules[i] = hashGateRule{
			sample:  true,
			prob:    gr[i].prob,
			originH: gr[i].originHash(seed),
			slots:   slots,
		}
	}
	return g
}

// ShouldFire implements engine.FireGate. It is safe for concurrent use.
func (g *HashGate) ShouldFire(ruleIndex int, vars []db.Sym) bool {
	r := &g.rules[ruleIndex]
	if !r.sample {
		return true
	}
	h := r.originH
	for _, s := range r.slots {
		h = mixGate(h, vars[s])
	}
	return gateFires(h, r.prob)
}

// gateRule is the seed-independent part of one rule's fire-or-not draw,
// shared by HashGate (which reads origin-variable values from the engine's
// bindings) and Propagator (which reads them from a Grounding).
type gateRule struct {
	sample bool    // false: always fire (magic/seed, or prob == 1)
	prob   float64 // w(origin)
	label  uint64  // FNV-1a of the origin label
}

// gateRules returns the draw parameters of every rule of t.
func gateRules(t *Transformed) []gateRule {
	out := make([]gateRule, len(t.Meta))
	for i, m := range t.Meta {
		if m.Kind != Modified || m.OriginProb >= 1 {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(m.Origin))
		out[i] = gateRule{sample: true, prob: m.OriginProb, label: h.Sum64()}
	}
	return out
}

// originHash is the hash state an instantiation of the rule starts from in
// the run with the given seed.
func (r *gateRule) originHash(seed uint64) uint64 { return splitmix64(seed ^ r.label) }

// mixGate folds one origin-variable value into an instantiation's hash.
func mixGate(h uint64, v db.Sym) uint64 { return splitmix64(h ^ uint64(uint32(v))) }

// gateFires maps an instantiation's finished hash to its verdict: the top
// 53 bits as a uniform float64 in [0, 1), compared to w(origin).
func gateFires(h uint64, prob float64) bool { return float64(h>>11)*0x1p-53 < prob }

// splitmix64 is the SplitMix64 finalizer: a full-avalanche bijection, so
// consecutive or low-entropy inputs still produce well-distributed hashes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
