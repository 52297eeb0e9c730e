package wdgraph

import "math/rand/v2"

// Walker performs repeated sampled reachability walks, reusing visitation
// state across walks (epoch-stamped marks) so that a walk costs O(visited)
// rather than O(graph). A walker can also be re-targeted at a different
// graph with Reset, which reuses the mark array whenever its capacity
// suffices — the Magic variants run one persistent walker per worker across
// thousands of per-RR subgraphs, so steady-state walks allocate nothing.
//
// Walkers are not safe for concurrent use; give each goroutine its own.
type Walker struct {
	g       *Graph
	visited []int32
	epoch   int32
	queue   []NodeID
	grows   int64
}

// NewWalker returns a walker over g. g may be nil if Reset is called before
// the first walk.
func NewWalker(g *Graph) *Walker {
	w := &Walker{}
	w.Reset(g)
	return w
}

// Reset re-targets the walker at g. The visitation marks are reused when
// they are large enough; otherwise they grow to g's node count (counted in
// Grows, surfaced as the rr.scratch_grows metric).
func (w *Walker) Reset(g *Graph) {
	w.g = g
	if g == nil {
		return
	}
	if n := g.NumNodes(); n > len(w.visited) {
		if n <= cap(w.visited) {
			// Extend into existing capacity: the new tail is zeroed by the
			// runtime, which can never equal a live epoch (epochs are >= 1).
			w.visited = w.visited[:n]
		} else {
			grown := make([]int32, n)
			copy(grown, w.visited)
			w.visited = grown
			w.grows++
		}
	}
}

// Grows returns how many times the walker's mark array had to be
// reallocated — zero in steady state once sized to the largest graph seen.
func (w *Walker) Grows() int64 { return w.grows }

func (w *Walker) begin() {
	w.epoch++
	if w.epoch == 0 { // wrapped; reset marks
		for i := range w.visited {
			w.visited[i] = -1
		}
		w.epoch = 1
	}
	w.queue = w.queue[:0]
}

// ReverseReachable walks backwards from root, crossing each in-edge
// independently with probability equal to its weight (Definition 3.4's
// random subgraph, explored lazily as in the RIS framework). It calls visit
// for every node reached, including root. If deterministic is true every
// edge is crossed with probability 1, which is correct when the graph was
// already sampled during construction (Magic^S CM).
//
// Edge iteration is in CSR order, which finalize() guarantees equals the
// order the builder added the edges in, and the RNG is consulted for
// exactly the unvisited weight<1 edges in that order, so a pinned seed
// reproduces the same RR set. An edge's weight is its source's (Weight):
// the in-edges of an instantiation come from facts and never draw.
//
// rng may be nil only when deterministic is true.
func (w *Walker) ReverseReachable(root NodeID, rng *rand.Rand, deterministic bool, visit func(NodeID)) {
	w.begin()
	g := w.g
	visited, epoch := w.visited, w.epoch
	visited[root] = epoch
	queue := append(w.queue, root)
	visit(root)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range g.inTo[g.inOff[v]:g.inOff[v+1]] {
			if visited[u] == epoch {
				continue
			}
			if wt := g.w[u]; !deterministic && wt < 1 && rng.Float64() >= wt {
				continue
			}
			visited[u] = epoch
			queue = append(queue, u)
			visit(u)
		}
	}
	w.queue = queue
}

// ForwardReach walks forward from the seed nodes, crossing each out-edge
// independently with probability equal to its weight, and calls visit for
// every node reached (including the seeds). It is the forward analogue used
// by the Monte-Carlo contribution estimator: one call simulates one random
// program execution restricted to derivations reachable from the seeds.
// The first forward walk on a graph builds its out-adjacency.
func (w *Walker) ForwardReach(seeds []NodeID, rng *rand.Rand, visit func(NodeID)) {
	w.begin()
	g := w.g
	off, to := g.out()
	visited, epoch := w.visited, w.epoch
	queue := w.queue
	for _, s := range seeds {
		if visited[s] != epoch {
			visited[s] = epoch
			queue = append(queue, s)
			visit(s)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		wt := g.w[v]
		for _, u := range to[off[v]:off[v+1]] {
			if visited[u] == epoch {
				continue
			}
			if wt < 1 && rng.Float64() >= wt {
				continue
			}
			visited[u] = epoch
			queue = append(queue, u)
			visit(u)
		}
	}
	w.queue = queue
}

// ReverseClosure computes deterministic reverse reachability (every edge
// crossed), returning nothing but invoking visit per reached node. It is
// used to identify the ancestors of a target in an unsampled graph.
func (w *Walker) ReverseClosure(root NodeID, visit func(NodeID)) {
	w.ReverseReachable(root, nil, true, visit)
}
