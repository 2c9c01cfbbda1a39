// facts.go splits graph construction into a per-file fact pass and a global
// resolve, so an incremental caller can keep an unchanged file's facts and
// rebuild the graph without touching its AST.
//
//   - FactsOf walks one file's AST once. It records the function
//     definitions, every function-pointer store, and every call site. All of
//     these are recorded by *name*, never resolved: the same facts stay valid
//     when another file gains, loses or changes a definition, because
//     resolution happens later.
//   - BuildFacts resolves the names of every file's facts against the
//     complete definition maps and wires the edges. It reads only facts.
//
// The contract is exact equivalence with Build over the same ASTs: same
// nodes in the same order, same edges in the same order, same pointer-target
// tables (see TestBuildParallelEquivalence). Definitions and pointer facts
// are merged in file order, and edges are resolved in node order, each
// node's call sites in source order — Build's order.
package callgraph

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ofence/internal/cast"
)

// Facts is what the call graph needs from one file, gathered in one walk of
// its AST. It depends on nothing but that AST, so it can be kept for as long
// as the file's content is unchanged. It holds pointers into the AST.
type Facts struct {
	// File is the translation unit's name.
	File string
	// Funcs are the definitions with bodies, in declaration order.
	Funcs []FuncFacts
	// Ptrs are the function-pointer stores in discovery order: file-scope
	// initializers first, then stores inside bodies in declaration order.
	Ptrs []PtrFact
}

// FuncFacts is one function definition and its call sites.
type FuncFacts struct {
	// Fn is the definition; Fn.Static is its linkage.
	Fn *cast.FuncDecl
	// Calls are the call sites in source order.
	Calls []CallSite
}

// CallSite is one call expression, described by the names resolution needs.
type CallSite struct {
	Call *cast.CallExpr
	// Name is the callee identifier of a direct-looking call f(...), or ""
	// for an indirect call.
	Name string
	// Slot names the pointer an indirect call goes through (the final field
	// of p->op(...), or fp of (*fp)(...)); "" when it has none.
	Slot string
	// Field marks an indirect call through a struct field, which may fall
	// back to the functions of positional initializer lists.
	Field bool
}

// PtrFact records that the function named Name (if one is visible from the
// file) is stored into pointers named Slot.
type PtrFact struct {
	Slot string
	Name string
	// Init marks a reference from an initializer list, which also makes the
	// function a fallback target of unmatched field calls.
	Init bool
}

func siteOf(call *cast.CallExpr) CallSite {
	if name := call.FunName(); name != "" {
		return CallSite{Call: call, Name: name}
	}
	return CallSite{Call: call, Slot: slotName(call.Fun), Field: isField(call.Fun)}
}

// FactsOf gathers one file's facts. A nil AST (parse failure) yields facts
// with no functions.
func FactsOf(f File) *Facts {
	fc := &Facts{File: f.Name}
	if f.AST == nil {
		return fc
	}
	for _, d := range f.AST.Decls {
		if vd, ok := d.(*cast.VarDecl); ok && vd.Init != nil {
			fc.ptrExpr(vd.Name, vd.Init)
		}
	}
	for _, fn := range f.AST.Functions() {
		ff := FuncFacts{Fn: fn}
		cast.Walk(fn.Body, func(node cast.Node) bool {
			switch x := node.(type) {
			case *cast.CallExpr:
				ff.Calls = append(ff.Calls, siteOf(x))
			case *cast.AssignExpr:
				if slot := slotName(x.X); slot != "" {
					fc.ptrExpr(slot, x.Y)
				}
			case *cast.DeclStmt:
				if x.Init != nil {
					fc.ptrExpr(x.Name, x.Init)
				}
			}
			return true
		})
		fc.Funcs = append(fc.Funcs, ff)
	}
	return fc
}

// ptrExpr mirrors Graph.collectPtrExpr, recording names instead of
// resolving them.
func (fc *Facts) ptrExpr(slot string, expr cast.Expr) {
	switch x := expr.(type) {
	case *cast.Ident:
		fc.Ptrs = append(fc.Ptrs, PtrFact{Slot: slot, Name: x.Name})
	case *cast.UnaryExpr:
		fc.ptrExpr(slot, x.X) // &fn
	case *cast.CastExpr:
		fc.ptrExpr(slot, x.X)
	case *cast.CondExpr:
		fc.ptrExpr(slot, x.Then)
		fc.ptrExpr(slot, x.Else)
	case *cast.InitListExpr:
		for _, el := range x.Elems {
			if id, ok := unwrapIdent(el); ok {
				fc.Ptrs = append(fc.Ptrs, PtrFact{Slot: slot, Name: id, Init: true})
			}
		}
	}
}

// BuildFacts constructs the graph from per-file facts, in file order,
// resolving every name against the complete definition maps. It runs on
// one goroutine: on a 2,048-file tree a sharded edge pass measured no
// faster on two CPUs. Nil entries are skipped.
func BuildFacts(facts []*Facts) *Graph {
	total := 0
	for _, fc := range facts {
		if fc != nil {
			total += len(fc.Funcs)
		}
	}
	g := newGraph(total)
	nodes := make([]Node, 0, total)
	for _, fc := range facts {
		if fc == nil {
			continue
		}
		for _, ff := range fc.Funcs {
			nodes = append(nodes, Node{File: fc.File, Fn: ff.Fn, Static: ff.Fn.Static, sites: ff.Calls})
			g.addNode(&nodes[len(nodes)-1])
		}
	}
	// Pointer facts resolve in file order against the complete node maps.
	for _, fc := range facts {
		if fc == nil {
			continue
		}
		for _, pf := range fc.Ptrs {
			if n := g.funcNamed(fc.File, pf.Name); n != nil {
				g.addPtrTarget(pf.Slot, n)
				if pf.Init {
					g.initTargets = append(g.initTargets, n)
				}
			}
		}
	}
	// Edges in Build's order: nodes in build order, each node's call sites
	// in source order.
	for _, n := range g.Nodes {
		for _, s := range n.sites {
			g.addCallEdges(n, s)
		}
	}
	return g
}

// BuildParallel constructs the same graph as Build for callers that hold
// ASTs: the per-file fact pass fans out over up to workers goroutines, then
// BuildFacts resolves.
func BuildParallel(files []File, workers int) *Graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	facts := make([]*Facts, len(files))
	forEach(len(files), workers, func(i int) { facts[i] = FactsOf(files[i]) })
	return BuildFacts(facts)
}

// forEach fans f over [0, n) with at most workers goroutines. Iterations
// must be independent; completion is a barrier.
func forEach(n, workers int, f func(i int)) {
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
