package im

import (
	"math"

	"contribmax/internal/obs/instr"
	"contribmax/internal/obs/journal"
)

// IMMParams parameterizes the adaptive sampling of IMM (Tang, Shi, Xiao:
// "Influence Maximization in Near-Linear Time", adapted to the targeted CM
// setting): the number of RR sets is derived from a statistically tested
// lower bound on OPT rather than fixed in advance — the paper's Remark 2
// policy, with the unknown graph size replaced by the |T2| upper bound.
type IMMParams struct {
	// Epsilon is the additive approximation error (default 0.1).
	Epsilon float64
	// Delta is the failure probability (default 1/NumTargets).
	Delta float64
	// NumTargets is |T2|, the influence normalizer.
	NumTargets int
	// NumCandidates is |T1|, sizing the union bound over seed sets.
	NumCandidates int
	// K is the seed-set size.
	K int
	// MaxRR caps the total number of generated RR sets (0 = 100·|T2|,
	// a pragmatic bound since the theoretical constants are conservative).
	MaxRR int
	// Instr, when non-nil, records one imm.round event per phase-1
	// halving round (threshold tested, cumulative θ, estimate, and the
	// lower bound once certified) — the convergence trace of Remark 2's
	// adaptive sampling — and the adaptive-phase metrics (imm.* counters:
	// runs, phase-1 halving rounds, RR sets per phase).
	Instr *instr.Instr
}

func (p *IMMParams) fill() {
	if p.Epsilon <= 0 {
		p.Epsilon = 0.1
	}
	if p.Delta <= 0 {
		n := p.NumTargets
		if n < 2 {
			n = 2
		}
		p.Delta = 1 / float64(n)
	}
	if p.MaxRR <= 0 {
		p.MaxRR = 100 * p.NumTargets
		if p.MaxRR < 1000 {
			p.MaxRR = 1000
		}
	}
	if p.K > p.NumCandidates {
		p.K = p.NumCandidates
	}
}

// IMMStats reports what the adaptive phase did.
type IMMStats struct {
	// Phase1RR is the number of RR sets generated while bounding OPT.
	Phase1RR int
	// TotalRR is the final collection size.
	TotalRR int
	// LowerBound is the certified lower bound on OPT.
	LowerBound float64
	// Capped reports that MaxRR stopped generation before the theoretical
	// count was reached (the result is still a valid greedy solution, with
	// a looser guarantee).
	Capped bool
}

// IMM runs the two-phase adaptive RIS scheme: phase 1 halves a guess x of
// OPT until a greedy solution over the sets generated so far certifies
// OPT ≥ x (yielding lower bound LB); phase 2 tops up to θ = λ*/LB sets.
//
// extend grows the collection: it appends exactly n more RR sets to coll
// or returns an error, on which IMM stops and returns it with the partial
// collection. The CM algorithms extend by one batch of pre-seeded slots
// per call, so the generated sets do not depend on how a batch is
// scheduled. The caller selects seeds over the returned collection.
func IMM(extend func(coll *RRCollection, n int) error, p IMMParams) (coll *RRCollection, stats IMMStats, err error) {
	p.fill()
	coll = NewRRCollection(p.NumCandidates)
	nT := float64(p.NumTargets)
	rounds := 0
	defer func() { p.Instr.IMMRun(rounds, stats.Phase1RR, stats.TotalRR, err == nil) }()

	generateTo := func(target int) error {
		if target > p.MaxRR {
			target = p.MaxRR
			stats.Capped = true
		}
		if n := target - coll.Len(); n > 0 {
			return extend(coll, n)
		}
		return nil
	}

	lnDeltaInv := math.Log(1 / p.Delta)
	logN := math.Log2(nT)
	if logN < 1 {
		logN = 1
	}
	epsPrime := math.Sqrt2 * p.Epsilon
	lambdaPrime := (2 + 2*epsPrime/3) *
		(lnChoose(p.NumCandidates, p.K) + lnDeltaInv + math.Log(logN)) *
		nT / (epsPrime * epsPrime)

	// Phase 1: find a lower bound on OPT.
	lb := 1.0
	for i := 1; float64(i) <= logN-1; i++ {
		rounds++
		x := nT / math.Pow(2, float64(i))
		thetaI := int(math.Ceil(lambdaPrime / x))
		if err := generateTo(thetaI); err != nil {
			return coll, stats, err
		}
		res := Greedy(coll, p.K)
		est := nT * float64(res.Covered) / float64(coll.Len())
		certified := est >= (1+epsPrime)*x
		if certified {
			lb = est / (1 + epsPrime)
		}
		ev := journal.IMMInfo{Round: i, X: x, Theta: coll.Len(), Est: est}
		if certified {
			ev.LB = lb
		}
		p.Instr.IMMRound(ev)
		if certified || stats.Capped {
			break
		}
	}
	stats.Phase1RR = coll.Len()
	stats.LowerBound = lb

	// Phase 2: top up to the certified count.
	alpha := math.Sqrt(lnDeltaInv + math.Ln2)
	beta := math.Sqrt((1 - 1/math.E) * (lnChoose(p.NumCandidates, p.K) + lnDeltaInv + math.Ln2))
	lambdaStar := 2 * nT * math.Pow((1-1/math.E)*alpha+beta, 2) / (p.Epsilon * p.Epsilon)
	if err := generateTo(int(math.Ceil(lambdaStar / lb))); err != nil {
		return coll, stats, err
	}
	stats.TotalRR = coll.Len()
	return coll, stats, nil
}
