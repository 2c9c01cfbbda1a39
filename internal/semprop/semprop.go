// Package semprop infers implicit barrier semantics interprocedurally: a
// function whose every path from entry to exit executes a memory barrier —
// an explicit Table 1 primitive, a Table 2 function, or a call to an
// already-inferred function — is itself classified as an implicit read,
// write, or full barrier.
//
// This automatically re-derives the paper's hand-curated Table 2 from
// function bodies instead of hardcoding it, and extends it with
// corpus-specific wrappers (the paper's main source of missed pairings when
// barrier and accesses live in different files).
//
// # The lattice
//
// Kinds form a diamond lattice ordered by "how much the function orders":
//
//	    full
//	   /    \
//	read    write
//	   \    /
//	    none
//
// join(read, write) = full (executing both orders both); meet(read, write)
// = none (a path guaranteed only one of them guarantees neither to a caller
// that needs both).
//
// # The analysis
//
// Per function, a forward MUST dataflow over the control-flow graph
// (internal/cfg): in(b) is the meet over predecessors' out (entry starts at
// none — nothing has executed), out(b) joins in(b) with the barriers the
// block itself executes. The function's kind is the meet over all exit
// blocks — the ordering guaranteed on EVERY path. Blocks start at full
// (top) and only descend, so the inner fixpoint terminates.
//
// Interprocedurally, all functions start at none and the per-function
// analysis is re-run — calls contributing their callee's current kind —
// until nothing changes. Kinds only ascend (the transfer function is
// monotone in the callee kinds), each function can ascend at most twice
// (none -> read/write -> full), so the outer fixpoint terminates within
// 2*|functions|+1 rounds. Recursive and mutually recursive functions are
// handled by the same iteration: they start at none (a sound
// under-approximation) and stabilize like every other node. Calls through
// unresolved function pointers contribute none — degrading to the paper's
// intraprocedural behavior, never erroring.
package semprop

import (
	"fmt"
	"runtime"
	"sort"

	"ofence/internal/callgraph"
	"ofence/internal/cast"
	"ofence/internal/cfg"
	"ofence/internal/memmodel"
)

// join is the least upper bound of the kind lattice.
func join(a, b memmodel.BarrierKind) memmodel.BarrierKind {
	if a == b {
		return a
	}
	if a == memmodel.None {
		return b
	}
	if b == memmodel.None {
		return a
	}
	return memmodel.FullBarrier // read ∨ write, or anything ∨ full
}

// meet is the greatest lower bound of the kind lattice.
func meet(a, b memmodel.BarrierKind) memmodel.BarrierKind {
	if a == b {
		return a
	}
	if a == memmodel.FullBarrier {
		return b
	}
	if b == memmodel.FullBarrier {
		return a
	}
	return memmodel.None // read ∧ write, or anything ∧ none
}

// Options configures the inference.
type Options struct {
	// ExtraFull lists functions assumed to imply a full barrier, mirroring
	// access.Options.ExtraBarrierSemantics (user extensions of Table 2).
	ExtraFull []string
	// MaxRounds bounds the interprocedural fixpoint; 0 derives the
	// theoretical bound 2*|functions|+1. Setting it forces the legacy
	// global round-robin schedule (the SCC schedule has no meaningful
	// global round count to bound).
	MaxRounds int
	// Workers bounds the SCC schedule's parallelism (0 = GOMAXPROCS).
	Workers int
	// Sequential forces the legacy whole-graph round-robin fixpoint. The
	// differential tests and the tree-scale benchmark use it as the
	// oracle; production callers leave it false and get the SCC schedule.
	Sequential bool
}

// InferredFn is one function with inferred barrier semantics.
type InferredFn struct {
	Name string
	File string
	Kind memmodel.BarrierKind
	// Known marks functions already in the built-in memmodel catalog
	// (Table 1 or Table 2) — inference re-derived them rather than
	// discovering something new.
	Known bool
}

// Inference is the fixpoint result.
type Inference struct {
	Graph *callgraph.Graph
	// Rounds is how many interprocedural passes ran.
	Rounds int
	// Converged reports whether a fixpoint was reached within the round
	// bound (always true for the derived bound; false only when a smaller
	// MaxRounds cut iteration short).
	Converged bool
	// Components is the number of strongly connected components the SCC
	// schedule processed; 0 when the legacy sequential loop ran.
	Components int
	// Levels is the depth of the condensation's topological levelling the
	// SCC schedule walked; 0 when the legacy sequential loop ran.
	Levels int

	// kinds holds each node's kind, indexed like Graph.Nodes.
	kinds []memmodel.BarrierKind
}

// Kind returns the inferred kind for a node of inf.Graph.
func (inf *Inference) Kind(n *callgraph.Node) memmodel.BarrierKind { return inf.kinds[n.Index()] }

// Functions returns every function with non-none inferred semantics, sorted
// by (name, file) for deterministic reports.
func (inf *Inference) Functions() []InferredFn {
	var out []InferredFn
	for i, n := range inf.Graph.Nodes {
		k := inf.kinds[i]
		if k == memmodel.None {
			continue
		}
		known := memmodel.IsBarrier(n.Name()) || memmodel.Lookup(n.Name()) != nil ||
			memmodel.SeqcountKind(n.Name()) != memmodel.None
		out = append(out, InferredFn{Name: n.Name(), File: n.File, Kind: k, Known: known})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].File < out[j].File
	})
	return out
}

// NameKinds flattens the inference to a name-keyed map for extraction
// (access.Options.InferredSemantics). When several definitions share a name
// (file-local statics), the meet is taken — the semantics any call site can
// rely on regardless of which definition it binds to. Names with kind none
// are omitted.
func (inf *Inference) NameKinds() map[string]memmodel.BarrierKind {
	byName := make(map[string]memmodel.BarrierKind, len(inf.kinds))
	for i, n := range inf.Graph.Nodes {
		k := inf.kinds[i]
		if cur, ok := byName[n.Name()]; ok {
			k = meet(cur, k)
		}
		byName[n.Name()] = k
	}
	for name, k := range byName {
		if k == memmodel.None {
			delete(byName, name)
		}
	}
	return byName
}

// InferredOnly returns the names whose barrier semantics exist ONLY by
// inference — functions the fixpoint classified as implicit barriers that
// the built-in memmodel catalog does not list. Orderings resting on these
// names carry extra uncertainty, which the confidence ranker
// (internal/rank) discounts. The input is Result.Inferred; a nil slice
// (depth 0) yields an empty map.
func InferredOnly(fns []InferredFn) map[string]bool {
	out := make(map[string]bool, len(fns))
	for _, f := range fns {
		if !f.Known {
			out[f.Name] = true
		}
	}
	return out
}

// Summary is one function's dataflow skeleton, built from its CFG: each
// block's predecessors, the reachable exit blocks, and each block's calls in
// execution order, by expression and callee name. It depends only on the
// function's own AST — not on the call graph and not on the options — so an
// incremental caller can keep it for as long as the file's content is
// unchanged. It holds pointers into the AST but does not retain the CFG.
//
// A nil *Summary stands for a function whose reachable code makes no call:
// every barrier contribution comes from a call, so its kind is none.
type Summary struct {
	// Block b's predecessors are preds[predOff[b]:predOff[b+1]] and its
	// calls are calls[callOff[b]:callOff[b+1]].
	predOff, preds []int32
	callOff        []int32
	calls          []call
	exits          []int32
}

// call is one call a block executes.
type call struct {
	expr *cast.CallExpr
	// name is the callee identifier, "" for a call through a pointer.
	name string
}

// blocks returns the number of CFG blocks.
func (s *Summary) blocks() int { return len(s.predOff) - 1 }

// Summarize builds fn's summary from its CFG.
func Summarize(fn *cast.FuncDecl) *Summary {
	g := cfg.Build(fn)
	s := &Summary{
		predOff: make([]int32, len(g.Blocks)+1),
		callOff: make([]int32, len(g.Blocks)+1),
	}
	for bi, blk := range g.Blocks {
		for _, u := range blk.Units {
			if root := u.Root(); root != nil {
				for _, c := range cast.Calls(root) {
					s.calls = append(s.calls, call{expr: c, name: c.FunName()})
				}
			}
		}
		s.callOff[bi+1] = int32(len(s.calls))
	}
	reach := g.Reachable()
	for id := range g.Blocks {
		if reach[id] && len(g.Blocks[id].Succs) == 0 {
			s.exits = append(s.exits, int32(id))
		}
	}
	if len(s.calls) == 0 || len(s.exits) == 0 {
		return nil
	}
	// Predecessor lists in (predecessor ID, successor order) — a counting
	// pass sizes each block's range, a second pass fills it.
	for _, blk := range g.Blocks {
		for _, succ := range blk.Succs {
			s.predOff[succ.ID+1]++
		}
	}
	for b := 1; b < len(s.predOff); b++ {
		s.predOff[b] += s.predOff[b-1]
	}
	s.preds = make([]int32, s.predOff[len(g.Blocks)])
	fill := append([]int32(nil), s.predOff[:len(g.Blocks)]...)
	for _, blk := range g.Blocks {
		for _, succ := range blk.Succs {
			s.preds[fill[succ.ID]] = int32(blk.ID)
			fill[succ.ID]++
		}
	}
	return s
}

// SummarizeFile summarizes every function of one file's call-graph facts,
// aligned with fc.Funcs.
func SummarizeFile(fc *callgraph.Facts) []*Summary {
	out := make([]*Summary, len(fc.Funcs))
	for i, ff := range fc.Funcs {
		out[i] = Summarize(ff.Fn)
	}
	return out
}

// fnInfo is one function's summary bound to the current graph and options:
// per block, the catalog's contribution (fixed across rounds) and the
// resolved call sites, each a list of candidate edges, whose kinds evolve.
type fnInfo struct {
	sum    *Summary
	static []memmodel.BarrierKind
	dyn    [][][]*callgraph.Edge
}

// Infer runs the interprocedural fixpoint over g, summarizing every
// function from its AST. See InferSummaries.
func Infer(g *callgraph.Graph, opts Options) *Inference {
	sums := make([]*Summary, len(g.Nodes))
	fanOut(len(g.Nodes), workersOf(opts), func(i int) { sums[i] = Summarize(g.Nodes[i].Fn) })
	return InferSummaries(g, sums, opts)
}

// InferSummaries runs the interprocedural fixpoint over g with precomputed
// summaries, sums[i] being g.Nodes[i]'s. By default the fixpoint is
// scheduled over the Tarjan condensation (see parallel.go): each strongly
// connected component is evaluated to its local fixpoint exactly once, in
// topological order, with independent components of a level running
// concurrently. Setting Options.Sequential — or bounding Options.MaxRounds,
// which only means something for global rounds — runs the legacy
// whole-graph round-robin instead. Both reach the same least fixpoint: the
// transfer function is monotone over a finite lattice, so chaotic iteration
// converges to a unique result regardless of evaluation order.
//
// Call resolution and catalog lookups (including Options.ExtraFull) happen
// here, never in Summarize, so a kept summary stays valid when another file
// or an option changes.
func InferSummaries(g *callgraph.Graph, sums []*Summary, opts Options) *Inference {
	if len(sums) != len(g.Nodes) {
		panic(fmt.Sprintf("semprop: %d summaries for %d nodes", len(sums), len(g.Nodes)))
	}
	extra := map[string]bool{}
	for _, name := range opts.ExtraFull {
		extra[name] = true
	}
	infos := make([]*fnInfo, len(g.Nodes))
	fanOut(len(g.Nodes), workersOf(opts), func(i int) {
		infos[i] = bind(g.Nodes[i], sums[i], extra)
	})
	inf := &Inference{Graph: g, kinds: make([]memmodel.BarrierKind, len(g.Nodes))} // ⊥ = None
	if opts.Sequential || opts.MaxRounds > 0 {
		inferRounds(opts, infos, inf)
	} else {
		inferSCC(g, opts, infos, inf)
	}
	return inf
}

func workersOf(opts Options) int {
	if opts.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return opts.Workers
}

// bind splits each block's barrier contribution into the static part
// (catalog lookups, fixed across rounds) and the dynamic part (resolved
// callees whose kinds evolve). A call resolved to definitions is judged by
// those definitions — re-derived, not hardcoded. A function with neither
// part is none whatever its callees do, and binds to nil.
func bind(n *callgraph.Node, sum *Summary, extra map[string]bool) *fnInfo {
	if sum == nil {
		return nil
	}
	nb := sum.blocks()
	info := &fnInfo{sum: sum, static: make([]memmodel.BarrierKind, nb), dyn: make([][][]*callgraph.Edge, nb)}
	sites := callSites(n)
	contributes := false
	for bi := 0; bi < nb; bi++ {
		for _, c := range sum.calls[sum.callOff[bi]:sum.callOff[bi+1]] {
			if cs := sites(c.expr); len(cs) > 0 {
				info.dyn[bi] = append(info.dyn[bi], cs)
				contributes = true
				continue
			}
			switch name := c.name; {
			case name == "":
				// unresolved pointer call: contributes none
			case memmodel.Barrier(name) != nil:
				info.static[bi] = join(info.static[bi], memmodel.Barrier(name).Kind)
			case memmodel.SeqcountKind(name) != memmodel.None:
				info.static[bi] = join(info.static[bi], memmodel.SeqcountKind(name))
			case memmodel.HasBarrierSemantics(name) || extra[name]:
				info.static[bi] = join(info.static[bi], memmodel.FullBarrier)
			}
			contributes = contributes || info.static[bi] != memmodel.None
		}
	}
	if !contributes {
		return nil
	}
	return info
}

// callSites returns a lookup from a call expression of n to its resolved
// edges: a subslice of n.Calls, where each call's edges are contiguous.
func callSites(n *callgraph.Node) func(*cast.CallExpr) []*callgraph.Edge {
	calls := n.Calls
	if len(calls) == 0 {
		return func(*cast.CallExpr) []*callgraph.Edge { return nil }
	}
	first := make(map[*cast.CallExpr]int, len(calls))
	for i := len(calls) - 1; i >= 0; i-- {
		first[calls[i].Call] = i
	}
	return func(c *cast.CallExpr) []*callgraph.Edge {
		i, ok := first[c]
		if !ok {
			return nil
		}
		j := i + 1
		for j < len(calls) && calls[j].Call == c {
			j++
		}
		return calls[i:j:j]
	}
}

// inferRounds is the legacy global round-robin fixpoint, kept as the
// differential oracle and the MaxRounds-bounded mode.
func inferRounds(opts Options, infos []*fnInfo, inf *Inference) {
	kinds := inf.kinds
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 2*len(kinds) + 1
	}
	changed := true
	for changed && inf.Rounds < maxRounds {
		changed = false
		inf.Rounds++
		for i := range kinds {
			k := evaluate(infos[i], kinds)
			if k != kinds[i] {
				kinds[i] = k
				changed = true
			}
		}
	}
	inf.Converged = !changed
}

// evaluate runs the per-function MUST dataflow under the current
// interprocedural kinds and returns the function's barrier kind.
func evaluate(info *fnInfo, cur []memmodel.BarrierKind) memmodel.BarrierKind {
	if info == nil {
		return memmodel.None
	}
	sum := info.sum
	nb := sum.blocks()

	// blockKind = static ∨ (for each dynamic call site, the meet over its
	// candidate targets: the semantics guaranteed whichever binds).
	blockKind := func(bi int) memmodel.BarrierKind {
		k := info.static[bi]
		for _, cs := range info.dyn[bi] {
			ck := memmodel.FullBarrier
			for _, e := range cs {
				ck = meet(ck, cur[e.Callee.Index()])
			}
			k = join(k, ck)
		}
		return k
	}

	var buf [64]memmodel.BarrierKind
	out := buf[:0]
	if nb > len(buf) {
		out = make([]memmodel.BarrierKind, 0, nb)
	}
	out = out[:nb]
	for i := range out {
		out[i] = memmodel.FullBarrier // top: optimistic for a must-analysis
	}
	// Iterate to the inner fixpoint; values only descend.
	for changed := true; changed; {
		changed = false
		for bi := 0; bi < nb; bi++ {
			in := memmodel.None
			if bi != 0 { // entry keeps in = none: nothing executed yet
				if ps := sum.preds[sum.predOff[bi]:sum.predOff[bi+1]]; len(ps) > 0 {
					in = memmodel.FullBarrier
					for _, p := range ps {
						in = meet(in, out[p])
					}
				}
			}
			o := join(in, blockKind(bi))
			if o != out[bi] {
				out[bi] = o
				changed = true
			}
		}
	}

	k := memmodel.FullBarrier
	for _, e := range sum.exits {
		k = meet(k, out[e])
	}
	return k
}
