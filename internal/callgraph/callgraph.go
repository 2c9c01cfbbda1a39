// Package callgraph builds a whole-corpus, cross-file call graph over the
// parsed translation units of a project. It is the substrate for
// interprocedural analyses (internal/semprop's barrier-semantics inference,
// cross-file exploration in internal/access): the paper bounds extraction at
// function boundaries plus one level of same-file callees, and this package
// is what lets later passes cross file boundaries soundly.
//
// Resolution covers two call forms:
//
//   - Direct calls f(...): resolved to the definition of f, honoring C
//     linkage — a static definition is only visible from its own file and
//     shadows an external definition of the same name there; distinct files
//     may each have their own static f.
//   - Indirect calls through function pointers (p->op(...), fp(...)):
//     resolved best-effort from assignments and initializers that store a
//     function's address into a variable or struct field. A pointer call
//     with no recorded candidate stays unresolved — analyses must degrade to
//     intraprocedural behavior there, never error.
//
// The graph is deterministic: nodes appear in (file order, declaration
// order) and edges in call-site order, so downstream fixpoints and reports
// are reproducible run to run.
package callgraph

import (
	"slices"
	"sort"

	"ofence/internal/cast"
)

// File is one named translation unit to include in the graph.
type File struct {
	Name string
	AST  *cast.File
}

// EdgeKind classifies how a call site was resolved.
type EdgeKind int

const (
	// Direct is a call through the function's name.
	Direct EdgeKind = iota
	// Pointer is a call through a function pointer, resolved from
	// assignment tracking.
	Pointer
)

// String renders the kind.
func (k EdgeKind) String() string {
	if k == Pointer {
		return "pointer"
	}
	return "direct"
}

// Edge is one resolved call site. A single call expression yields one edge
// per candidate callee (pointer calls may have several).
type Edge struct {
	Caller *Node
	Callee *Node
	Call   *cast.CallExpr
	Kind   EdgeKind
}

// Node is one function definition (a FuncDecl with a body).
type Node struct {
	// File is the defining translation unit.
	File string
	// Fn is the definition.
	Fn *cast.FuncDecl
	// Static records file-local linkage.
	Static bool
	// Calls are the outgoing resolved edges in call-site order.
	Calls []*Edge
	// CalledBy are the incoming edges.
	CalledBy []*Edge
	// UnresolvedCalls counts call sites in this function that could not be
	// resolved to any definition (external functions, unknown pointers).
	UnresolvedCalls int
	// sites are the function's call sites in source order, by name; FileDeps
	// reads the called names from here instead of re-walking the body.
	sites []CallSite
	// index is the node's position in Graph.Nodes.
	index int
	// prevDef is the previous definition with the same name, in build
	// order (Graph.byName chains them newest first).
	prevDef *Node
}

// Name returns the function name.
func (n *Node) Name() string { return n.Fn.Name }

// Index returns the node's position in its graph's Nodes, so per-node
// analysis state can live in dense slices instead of maps.
func (n *Node) Index() int { return n.index }

// Graph is the whole-corpus call graph.
type Graph struct {
	// Nodes in deterministic (file, declaration) order.
	Nodes []*Node
	// byName maps a function name to its last definition in build order;
	// Node.prevDef chains the earlier ones (several when distinct files
	// define same-named statics).
	byName map[string]*Node
	// ptrTargets maps a slot name (variable or struct-field name) to the
	// functions whose address is stored into such a slot somewhere in the
	// corpus.
	ptrTargets map[string][]*Node
	// initTargets are functions referenced from initializer lists where the
	// destination slot could not be named (positional struct initializers);
	// they are fallback candidates for unmatched field-pointer calls.
	initTargets []*Node
}

// newGraph returns an empty graph sized for about n definitions.
func newGraph(n int) *Graph {
	return &Graph{
		Nodes:      make([]*Node, 0, n),
		byName:     make(map[string]*Node, n),
		ptrTargets: map[string][]*Node{},
	}
}

// addNode registers n as the next node in build order.
func (g *Graph) addNode(n *Node) {
	n.index = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	n.prevDef = g.byName[n.Fn.Name]
	g.byName[n.Fn.Name] = n
}

// Build constructs the graph over files by walking every AST in three
// sequential passes. It is the reference builder the facts-based
// BuildFacts is tested against. Files with nil ASTs (parse failures) are
// skipped; the builder never fails.
func Build(files []File) *Graph {
	g := newGraph(0)
	// Pass 1: nodes for every definition.
	for _, f := range files {
		if f.AST == nil {
			continue
		}
		for _, fn := range f.AST.Functions() {
			if fn.Body == nil {
				continue
			}
			g.addNode(&Node{File: f.Name, Fn: fn, Static: fn.Static})
		}
	}
	// Pass 2: function-pointer assignment tracking (file-scope initializers
	// and statements inside every body).
	for _, f := range files {
		if f.AST == nil {
			continue
		}
		for _, d := range f.AST.Decls {
			if vd, ok := d.(*cast.VarDecl); ok && vd.Init != nil {
				g.collectPtrExpr(f.Name, vd.Name, vd.Init)
			}
		}
		for _, fn := range f.AST.Functions() {
			if fn.Body == nil {
				continue
			}
			cast.Walk(fn.Body, func(node cast.Node) bool {
				switch x := node.(type) {
				case *cast.AssignExpr:
					g.collectPtrAssign(f.Name, x)
				case *cast.DeclStmt:
					if x.Init != nil {
						g.collectPtrExpr(f.Name, x.Name, x.Init)
					}
				}
				return true
			})
		}
	}
	// Pass 3: edges.
	for _, n := range g.Nodes {
		for _, call := range cast.Calls(n.Fn.Body) {
			s := siteOf(call)
			n.sites = append(n.sites, s)
			g.addCallEdges(n, s)
		}
	}
	return g
}

// funcNamed returns the definition a bare identifier refers to from file,
// honoring static visibility.
func (g *Graph) funcNamed(file, name string) *Node {
	var ext *Node
	for n := g.byName[name]; n != nil; n = n.prevDef {
		if n.File == file {
			return n // same-file definition (static or not) wins; the last one
		}
		if !n.Static {
			ext = n // external linkage: visible everywhere; the first one
		}
	}
	return ext
}

// collectPtrAssign records "slot = fn" and "x->field = fn" assignments.
func (g *Graph) collectPtrAssign(file string, as *cast.AssignExpr) {
	slot := slotName(as.X)
	if slot == "" {
		return
	}
	g.collectPtrExpr(file, slot, as.Y)
}

// collectPtrExpr records every function referenced by expr under slot.
// Initializer lists recurse: named slots keep the outer name (best-effort;
// designated initializers are not distinguished by the parser), and the
// functions are additionally remembered as fallback init targets.
func (g *Graph) collectPtrExpr(file, slot string, expr cast.Expr) {
	switch x := expr.(type) {
	case *cast.Ident:
		if n := g.funcNamed(file, x.Name); n != nil {
			g.addPtrTarget(slot, n)
		}
	case *cast.UnaryExpr:
		g.collectPtrExpr(file, slot, x.X) // &fn
	case *cast.CastExpr:
		g.collectPtrExpr(file, slot, x.X)
	case *cast.CondExpr:
		g.collectPtrExpr(file, slot, x.Then)
		g.collectPtrExpr(file, slot, x.Else)
	case *cast.InitListExpr:
		for _, el := range x.Elems {
			if id, ok := unwrapIdent(el); ok {
				if n := g.funcNamed(file, id); n != nil {
					g.addPtrTarget(slot, n)
					g.initTargets = append(g.initTargets, n)
				}
			}
		}
	}
}

func unwrapIdent(e cast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *cast.Ident:
			return x.Name, true
		case *cast.UnaryExpr:
			e = x.X
		case *cast.CastExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

func (g *Graph) addPtrTarget(slot string, n *Node) {
	for _, have := range g.ptrTargets[slot] {
		if have == n {
			return
		}
	}
	g.ptrTargets[slot] = append(g.ptrTargets[slot], n)
}

// slotName names the destination of a pointer store: a plain variable or
// the final field of a field chain.
func slotName(e cast.Expr) string {
	switch x := e.(type) {
	case *cast.Ident:
		return x.Name
	case *cast.FieldExpr:
		return x.Name
	case *cast.UnaryExpr:
		return slotName(x.X) // *fp = ...
	case *cast.IndexExpr:
		return slotName(x.X) // ops[i] = ...
	}
	return ""
}

// addCallEdges resolves one call site and appends the edges.
func (g *Graph) addCallEdges(caller *Node, s CallSite) {
	before := len(caller.Calls)
	var resolved bool
	caller.Calls, resolved = g.appendEdges(caller.Calls, caller, s)
	if !resolved {
		caller.UnresolvedCalls++
		return
	}
	for _, e := range caller.Calls[before:] {
		e.Callee.CalledBy = append(e.Callee.CalledBy, e)
	}
}

// appendEdges resolves one call site and appends its edges to dst without
// mutating the graph. It only reads the node and pointer-target maps, which
// are frozen by the time edges are resolved.
func (g *Graph) appendEdges(dst []*Edge, caller *Node, s CallSite) (out []*Edge, resolved bool) {
	if name := s.Name; name != "" {
		if callee := g.funcNamed(caller.File, name); callee != nil {
			return append(dst, &Edge{Caller: caller, Callee: callee, Call: s.Call, Kind: Direct}), true
		}
		// A bare identifier that is not a definition may still be a
		// function-pointer variable: fp(...).
		return appendPointerEdges(dst, caller, s, g.ptrTargets[name])
	}
	// Indirect call: p->op(...), (*fp)(...), ops[i].fn(...).
	cands := g.ptrTargets[s.Slot]
	if len(cands) == 0 && s.Slot != "" && s.Field {
		// Field calls with no named match fall back to functions seen in
		// positional initializer lists.
		cands = g.initTargets
	}
	return appendPointerEdges(dst, caller, s, cands)
}

// appendPointerEdges appends one pointer edge per candidate; a call with no
// candidate is unresolved.
func appendPointerEdges(dst []*Edge, caller *Node, s CallSite, cands []*Node) ([]*Edge, bool) {
	for _, callee := range cands {
		dst = append(dst, &Edge{Caller: caller, Callee: callee, Call: s.Call, Kind: Pointer})
	}
	return dst, len(cands) > 0
}

// isField reports whether a callee expression ends in a struct field,
// looking through derefs, casts and indexing: p->op, (*p).op, ops[i].fn.
func isField(e cast.Expr) bool {
	for {
		switch x := e.(type) {
		case *cast.FieldExpr:
			return true
		case *cast.UnaryExpr:
			e = x.X
		case *cast.CastExpr:
			e = x.X
		case *cast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

// Lookup returns every definition named name, in build order.
func (g *Graph) Lookup(name string) []*Node {
	var out []*Node
	for n := g.byName[name]; n != nil; n = n.prevDef {
		out = append(out, n)
	}
	slices.Reverse(out)
	return out
}

// ResolverFor returns a name resolver with fromFile's visibility: the
// function cfg-level cross-file inlining uses. It returns nil for names with
// no visible definition, so callers degrade to the paper's one-level
// same-file behavior.
func (g *Graph) ResolverFor(fromFile string) func(name string) *cast.FuncDecl {
	return func(name string) *cast.FuncDecl {
		if n := g.funcNamed(fromFile, name); n != nil {
			return n.Fn
		}
		return nil
	}
}

// Callees returns the distinct nodes n calls, in first-call order.
func (n *Node) Callees() []*Node {
	var out []*Node
	seen := map[*Node]bool{}
	for _, e := range n.Calls {
		if !seen[e.Callee] {
			seen[e.Callee] = true
			out = append(out, e.Callee)
		}
	}
	return out
}

// FileDeps returns the conservative file-level dependency map the
// incremental pipeline keys interprocedural extraction on: file A depends on
// file B when A's extraction could observe code from B — through a resolved
// call edge (direct or function-pointer), or because a name called anywhere
// in A has a definition in B (the superset any per-file resolver may splice,
// regardless of which visibility context resolves the nested call). The
// lists are sorted, duplicate-free and never include the file itself.
//
// The map is deliberately an over-approximation: a file outside another
// file's transitive dependency closure can never influence its extraction,
// so artifacts keyed over the closure's contents are safe to reuse.
func (g *Graph) FileDeps() map[string][]string {
	deps := map[string]map[string]bool{}
	add := func(from, to string) {
		if from == to {
			return
		}
		m, ok := deps[from]
		if !ok {
			m = map[string]bool{}
			deps[from] = m
		}
		m[to] = true
	}
	for _, n := range g.Nodes {
		if _, ok := deps[n.File]; !ok {
			deps[n.File] = map[string]bool{}
		}
		for _, e := range n.Calls {
			add(n.File, e.Callee.File)
		}
		for _, s := range n.sites {
			for def := g.byName[s.Name]; def != nil; def = def.prevDef {
				add(n.File, def.File)
			}
		}
	}
	out := make(map[string][]string, len(deps))
	for file, set := range deps {
		list := make([]string, 0, len(set))
		for to := range set {
			list = append(list, to)
		}
		sort.Strings(list)
		out[file] = list
	}
	return out
}

// Stats summarizes the graph for reports and metrics.
type Stats struct {
	Functions  int
	Edges      int
	PtrEdges   int
	Unresolved int
}

// Stats computes the summary.
func (g *Graph) Stats() Stats {
	var st Stats
	st.Functions = len(g.Nodes)
	for _, n := range g.Nodes {
		st.Edges += len(n.Calls)
		st.Unresolved += n.UnresolvedCalls
		for _, e := range n.Calls {
			if e.Kind == Pointer {
				st.PtrEdges++
			}
		}
	}
	return st
}

// SCCs returns the strongly connected components of the graph in Tarjan
// order (reverse topological: callees before callers), each component's
// nodes in build order. Recursive functions form components of size >= 1
// with a self or mutual cycle.
func (g *Graph) SCCs() [][]*Node {
	n := len(g.Nodes)
	index := make([]int, n) // visit order + 1; 0 = unvisited
	low := make([]int, n)
	onStack := make([]bool, n)
	var stack []*Node
	var comps [][]*Node
	next := 1

	var strongconnect func(v *Node)
	strongconnect = func(v *Node) {
		vi := v.index
		index[vi] = next
		low[vi] = next
		next++
		stack = append(stack, v)
		onStack[vi] = true
		for _, e := range v.Calls {
			wi := e.Callee.index
			if index[wi] == 0 {
				strongconnect(e.Callee)
				if low[wi] < low[vi] {
					low[vi] = low[wi]
				}
			} else if onStack[wi] && index[wi] < low[vi] {
				low[vi] = index[wi]
			}
		}
		if low[vi] == index[vi] {
			var comp []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w.index] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return index[comp[i].index] < index[comp[j].index] })
			comps = append(comps, comp)
		}
	}
	for _, v := range g.Nodes {
		if index[v.index] == 0 {
			strongconnect(v)
		}
	}
	return comps
}
