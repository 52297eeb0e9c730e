package engine

import (
	"errors"
	"time"

	"contribmax/internal/db"
)

// Pipelined evaluation (Options.Parallelism >= 2 with a Listener).
//
// The fixpoint runs unchanged on a helper goroutine, except that emit
// appends each fired instantiation to a pointer-free batch instead of
// calling the listener; the calling goroutine decodes handed-over batches
// into the same Derivation values, in the same order, and calls the
// listener. So while the listener consumes one batch, the fixpoint joins
// and inserts the next. Nothing is reordered: relations, Stats and the
// stream are those of sequential evaluation. When the run's context can be
// cancelled, the fixpoint hands its partial batch over at every round
// boundary and waits until the listener has consumed it (a drain) before
// it checks MaxRounds and the context, so a listener that cancels stops
// the run where a sequential run stops. Otherwise nothing can observe a
// boundary, so the fixpoint does not wait there: MaxRounds counts the
// fixpoint's own rounds, and the last batch reaches the listener before
// Run returns either way.

const (
	// pipeBatchLen is the number of derivations per batch: enough that the
	// per-batch channel operations and clock reads vanish next to the
	// derivations, few enough that a batch's arenas stay cache-sized.
	pipeBatchLen = 2048
	// pipeBatches is the number of batches in circulation: one filling, one
	// being consumed, and four queued between them, which absorbs a burst
	// of cheap derivations on either side without letting the fixpoint run
	// far ahead of a slower listener.
	pipeBatches = 6
)

// errListenerStopped ends the fixpoint after the listener panicked; the
// caller re-raises the panic, so the error itself never surfaces.
var errListenerStopped = errors.New("engine: listener stopped")

// derivRec is one fired instantiation in a batch. Its body tuple ids, and
// its head symbols when new is set, follow in the batch's ids and syms
// arenas at strides fixed by the rule (body length, head arity).
type derivRec struct {
	rule int32
	head db.TupleID
	new  bool
}

// batch is a run of consecutive derivation records. It holds no pointers,
// so the collector never scans its arenas.
type batch struct {
	recs  []derivRec
	ids   []db.TupleID
	syms  []db.Sym
	drain bool // the fixpoint waits for this batch back on pipe.drained
}

// pipe connects the fixpoint goroutine to the listener goroutine. Every
// batch is in exactly one place at a time: the fixpoint's cur, full, the
// listener, free, or drained; the channels carry the happens-before edges
// that make each batch's contents visible to its next owner.
type pipe struct {
	// full carries filled batches to the listener. Its buffer holds every
	// batch in circulation, so a hand-over never blocks: the fixpoint
	// waits only for an empty batch to come back.
	full chan *batch
	// free returns consumed batches to the fixpoint. Sized like full: the
	// listener never blocks returning a batch.
	free chan *batch
	// drained returns a consumed drain batch; one is in flight at a time.
	drained chan *batch
	// stop is closed when the listener panicked.
	stop chan struct{}

	cur    *batch // the batch the fixpoint is filling; nil once stopped
	drains bool   // the fixpoint drains at round boundaries

	// handed and fixpointWait belong to the fixpoint goroutine,
	// listenerWait to the listener's; the caller reads all three after
	// both stages have stopped.
	handed       int
	fixpointWait time.Duration
	listenerWait time.Duration
}

func newPipe(drains bool) *pipe {
	p := &pipe{
		full:    make(chan *batch, pipeBatches),
		free:    make(chan *batch, pipeBatches),
		drained: make(chan *batch, 1),
		stop:    make(chan struct{}),
		cur:     &batch{},
		drains:  drains,
	}
	for i := 1; i < pipeBatches; i++ {
		p.free <- &batch{}
	}
	return p
}

// runPipelined evaluates on a helper goroutine while the calling goroutine
// delivers the derivations to the listener. It returns once both have
// stopped, on every path; a panic on either side is raised here after the
// other side has stopped.
func (ev *evaluator) runPipelined() error {
	ctx := ev.opts.Context
	p := newPipe(ctx != nil && ctx.Done() != nil)
	ev.pipe = p
	// exited carries the fixpoint's panic value (nil when it returned); its
	// buffer lets the helper exit without waiting for the caller. runErr is
	// written before full is closed, so the caller reads it once deliver
	// has returned.
	exited := make(chan any, 1)
	var runErr error
	go func() {
		defer func() {
			close(p.full)
			exited <- recover()
		}()
		runErr = ev.run()
		p.finish()
	}()
	delivered := false
	defer func() {
		if !delivered {
			// The listener panicked: stop the fixpoint and let the panic
			// continue once the helper has exited, chained after the
			// fixpoint's own if it panicked too.
			close(p.stop)
			if pv := <-exited; pv != nil {
				panic(pv)
			}
		}
	}()
	p.deliver(ev.engine.c.rules, ev.engine.rels, ev.opts.Listener)
	delivered = true
	if pv := <-exited; pv != nil {
		panic(pv)
	}
	ev.opts.Instr.EnginePipeline(p.handed, p.listenerWait, p.fixpointWait)
	return runErr
}

// add appends one fired instantiation to the current batch and hands the
// batch over when it is full. After the listener stopped it does nothing;
// the fixpoint then ends at its next round boundary.
func (p *pipe) add(cr *compiledRule, head db.TupleID, added bool, ht db.Tuple, body []FactRef) {
	b := p.cur
	if b == nil {
		return
	}
	b.recs = append(b.recs, derivRec{rule: int32(cr.index), head: head, new: added})
	for i := range body {
		b.ids = append(b.ids, body[i].ID)
	}
	if added {
		b.syms = append(b.syms, ht...)
	}
	if len(b.recs) == pipeBatchLen {
		p.handOver(false)
	}
}

// boundary runs at every round boundary and reports false once the
// listener has stopped. A draining pipe hands the partial batch over and
// waits until the listener has consumed it and everything before it; any
// other pipe only looks whether the listener stopped.
func (p *pipe) boundary() bool {
	if p.cur == nil {
		return false
	}
	if p.drains {
		p.handOver(true)
		return p.cur != nil
	}
	select {
	case <-p.stop:
		p.cur = nil
		return false
	default:
		return true
	}
}

// handOver sends the current batch to the listener and takes the next one
// to fill: a consumed batch from free or, for a drain, the drain batch
// itself once consumed. The time it blocks is the fixpoint's wait for the
// listener.
func (p *pipe) handOver(drain bool) {
	p.cur.drain = drain
	p.full <- p.cur
	p.handed++
	back := p.free
	if drain {
		back = p.drained
	}
	select {
	case p.cur = <-back:
		return
	default:
	}
	t0 := time.Now()
	select {
	case p.cur = <-back:
	case <-p.stop:
		p.cur = nil
	}
	p.fixpointWait += time.Since(t0)
}

// finish hands the last partial batch over when the fixpoint returns.
func (p *pipe) finish() {
	if p.cur != nil && len(p.cur.recs) > 0 {
		p.full <- p.cur
		p.handed++
	}
}

// deliver runs on the calling goroutine: it decodes every handed-over
// batch into Derivations for listener, in order, until the fixpoint closes
// full. It reads only the compiled rules and the relation table, which the
// fixpoint never writes, and the batches it owns.
func (p *pipe) deliver(rules []*compiledRule, rels []*db.Relation, listener DerivationListener) {
	var body []FactRef
	for {
		var b *batch
		var ok bool
		select {
		case b, ok = <-p.full:
		default:
			t0 := time.Now()
			b, ok = <-p.full
			p.listenerWait += time.Since(t0)
		}
		if !ok {
			return
		}
		ids, syms := b.ids, b.syms
		for _, r := range b.recs {
			cr := rules[r.rule]
			n := len(cr.body)
			if cap(body) < n {
				body = make([]FactRef, n)
			}
			body = body[:n]
			for j := range body {
				body[j] = FactRef{Rel: rels[cr.body[j].rel], ID: ids[j]}
			}
			ids = ids[n:]
			d := Derivation{RuleIndex: int(r.rule), Rule: &cr.src, Head: FactRef{Rel: rels[cr.head.rel], ID: r.head}, HeadNew: r.new, Body: body}
			if r.new {
				a := cr.head.arity
				d.HeadTuple, syms = syms[:a:a], syms[a:]
			}
			listener(d)
		}
		b.recs, b.ids, b.syms = b.recs[:0], b.ids[:0], b.syms[:0]
		if b.drain {
			p.drained <- b
		} else {
			p.free <- b
		}
	}
}
