// parallel.go schedules the interprocedural fixpoint over the call graph's
// Tarjan condensation instead of round-robin over every node.
//
// Why this is sound: the per-function transfer is monotone in the callee
// kinds over a finite lattice, so any fair chaotic iteration from ⊥
// converges to the same unique least fixpoint — evaluation order changes
// only how many evaluations are spent, never the answer (the differential
// suite pins this against the legacy schedule).
//
// Why this is fast: a function's kind depends only on its callees' kinds.
// g.SCCs() is already reverse-topological (callees before callers), so
// processing components in that order means every non-recursive function is
// evaluated EXACTLY once — its callees are final when it runs. The legacy
// schedule instead pays a full pass over all N nodes per round, and needs
// one round per link of the longest call chain whose callee appears later
// in build order (a caller-in-earlier-file chain of depth D costs D·N
// evaluations; kernel-style wrapper stacks make D hundreds deep).
// Recursive components iterate locally to their own fixpoint — bounded by
// 2·|component|+1 tiny rounds — without dragging the rest of the graph
// along. Components that share a topological level cannot reach each other
// in either direction, so they evaluate concurrently; kinds live in a
// dense slice where distinct elements are distinct memory locations and
// level barriers provide the cross-level happens-before.
package semprop

import (
	"sync"
	"sync/atomic"

	"ofence/internal/callgraph"
	"ofence/internal/memmodel"
)

// inferSCC runs the condensation-scheduled fixpoint over the bound infos,
// filling kinds (indexed like g.Nodes) and inf's schedule counters.
func inferSCC(g *callgraph.Graph, opts Options, infos []*fnInfo, inf *Inference) {
	workers := workersOf(opts)
	n := len(g.Nodes)
	inf.Converged = true
	if n == 0 {
		return
	}

	// Condense and level the component DAG. SCCs() returns components in
	// reverse topological order, so every cross-component callee has a
	// smaller component index and one ascending pass computes levels.
	comps := g.SCCs()
	compOf := make([]int32, n)
	for ci, comp := range comps {
		for _, nd := range comp {
			compOf[nd.Index()] = int32(ci)
		}
	}
	level := make([]int32, len(comps))
	var maxLevel int32
	for ci, comp := range comps {
		for _, nd := range comp {
			for _, e := range nd.Calls {
				cc := compOf[e.Callee.Index()]
				if int(cc) != ci && level[cc]+1 > level[ci] {
					level[ci] = level[cc] + 1
				}
			}
		}
		if level[ci] > maxLevel {
			maxLevel = level[ci]
		}
	}
	byLevel := make([][]int, maxLevel+1)
	for ci := range comps {
		byLevel[level[ci]] = append(byLevel[level[ci]], ci)
	}

	var maxRounds atomic.Int64
	for _, compIDs := range byLevel {
		fanOut(len(compIDs), workers, func(i int) {
			r := int64(evalComp(comps[compIDs[i]], infos, inf.kinds))
			for {
				cur := maxRounds.Load()
				if r <= cur || maxRounds.CompareAndSwap(cur, r) {
					break
				}
			}
		})
	}

	inf.Rounds = int(maxRounds.Load())
	inf.Components = len(comps)
	inf.Levels = int(maxLevel) + 1
}

// evalComp evaluates one component to its local fixpoint, returning the
// local round count. Callee kinds outside the component are final (lower
// levels completed behind a barrier); kinds inside it are owned by this
// goroutine only.
func evalComp(comp []*callgraph.Node, infos []*fnInfo, kinds []memmodel.BarrierKind) int {
	if len(comp) == 1 && !callsSelf(comp[0]) {
		i := comp[0].Index()
		kinds[i] = evaluate(infos[i], kinds)
		return 1
	}
	rounds := 0
	for changed := true; changed; {
		changed = false
		rounds++
		for _, nd := range comp {
			i := nd.Index()
			k := evaluate(infos[i], kinds)
			if k != kinds[i] {
				kinds[i] = k
				changed = true
			}
		}
	}
	return rounds
}

func callsSelf(n *callgraph.Node) bool {
	for _, e := range n.Calls {
		if e.Callee == n {
			return true
		}
	}
	return false
}

// fanOut runs f over [0, n) with at most workers goroutines and waits for
// completion. Iterations must be independent.
func fanOut(n, workers int, f func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
