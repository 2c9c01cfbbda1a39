package cfg_test

import (
	"fmt"
	"strings"
	"testing"

	"ofence/internal/cast"
	"ofence/internal/cfg"
	"ofence/internal/corpus"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/ctypes"
	"ofence/internal/kernelhdr"
	"ofence/internal/sitegen"
)

// slabLinearize is the linearizer as it was before streams were built at
// their exact size: one walk, units handed out from a slab that starts at
// 32 values and doubles up to 1024, a unit's pointer kept so InlinedCall
// can be set after the splice. It is the oracle cfg.Linearize must match.
func slabLinearize(fn *cast.FuncDecl, opts cfg.LinearizeOptions) []*cfg.Unit {
	ln := &slabLinearizer{opts: opts}
	ln.fn(fn, "", opts.InlineDepth, opts.ResolveDepth)
	for i, u := range ln.units {
		u.Index = i
	}
	return ln.units
}

type slabLinearizer struct {
	opts  cfg.LinearizeOptions
	units []*cfg.Unit
	slab  []cfg.Unit
	full  bool
}

func (l *slabLinearizer) newUnit(kind cfg.UnitKind, stmt cast.Stmt, expr cast.Expr, fn *cast.FuncDecl, inlinedFrom string, pos ctoken.Position) *cfg.Unit {
	if len(l.slab) == cap(l.slab) {
		l.slab = make([]cfg.Unit, 0, min(max(cap(l.slab)*2, 32), 1024))
	}
	l.slab = l.slab[:len(l.slab)+1]
	u := &l.slab[len(l.slab)-1]
	u.Kind, u.Stmt, u.Expr, u.Fn, u.InlinedFrom, u.Pos = kind, stmt, expr, fn, inlinedFrom, pos
	if l.opts.MaxUnits > 0 && len(l.units) >= l.opts.MaxUnits {
		l.full = true
	} else {
		l.units = append(l.units, u)
	}
	return u
}

func (l *slabLinearizer) fn(fn *cast.FuncDecl, inlinedFrom string, depth, rdepth int) {
	if fn.Body == nil || l.full {
		return
	}
	for _, s := range fn.Body.Stmts {
		l.stmt(s, fn, inlinedFrom, depth, rdepth)
		if l.full {
			return
		}
	}
}

func (l *slabLinearizer) maybeInline(e cast.Expr, fn *cast.FuncDecl, depth, rdepth int) bool {
	call, ok := e.(*cast.CallExpr)
	if !ok {
		return false
	}
	name := call.FunName()
	if name == "" || name == fn.Name {
		return false
	}
	if depth > 0 && l.opts.Table != nil {
		if callee := l.opts.Table.Func(name); callee != nil && callee.Body != nil {
			l.fn(callee, name, depth-1, rdepth)
			return true
		}
	}
	if rdepth > 0 && l.opts.Resolve != nil {
		if callee := l.opts.Resolve(name); callee != nil && callee.Body != nil {
			l.fn(callee, name, depth, rdepth-1)
			return true
		}
	}
	return false
}

func (l *slabLinearizer) stmt(s cast.Stmt, fn *cast.FuncDecl, from string, depth, rdepth int) {
	if l.full {
		return
	}
	switch x := s.(type) {
	case *cast.BlockStmt:
		for _, st := range x.Stmts {
			l.stmt(st, fn, from, depth, rdepth)
			if l.full {
				return
			}
		}
	case *cast.ExprStmt:
		u := l.newUnit(cfg.UnitStmt, x, x.X, fn, from, x.Position)
		if l.maybeInline(x.X, fn, depth, rdepth) {
			u.InlinedCall = true
		}
	case *cast.DeclStmt:
		u := l.newUnit(cfg.UnitStmt, x, x.Init, fn, from, x.Position)
		if x.Init != nil && l.maybeInline(x.Init, fn, depth, rdepth) {
			u.InlinedCall = true
		}
	case *cast.IfStmt:
		l.newUnit(cfg.UnitCond, x, x.Cond, fn, from, x.Position)
		l.stmt(x.Then, fn, from, depth, rdepth)
		if x.Else != nil {
			l.stmt(x.Else, fn, from, depth, rdepth)
		}
	case *cast.ForStmt:
		if x.Init != nil {
			l.stmt(x.Init, fn, from, depth, rdepth)
		}
		if x.Cond != nil {
			l.newUnit(cfg.UnitCond, x, x.Cond, fn, from, x.Position)
		}
		l.stmt(x.Body, fn, from, depth, rdepth)
		if x.Post != nil {
			l.newUnit(cfg.UnitStmt, x, x.Post, fn, from, x.Position)
		}
	case *cast.WhileStmt:
		l.newUnit(cfg.UnitCond, x, x.Cond, fn, from, x.Position)
		l.stmt(x.Body, fn, from, depth, rdepth)
	case *cast.DoWhileStmt:
		l.stmt(x.Body, fn, from, depth, rdepth)
		l.newUnit(cfg.UnitCond, x, x.Cond, fn, from, x.Position)
	case *cast.SwitchStmt:
		l.newUnit(cfg.UnitCond, x, x.Tag, fn, from, x.Position)
		l.stmt(x.Body, fn, from, depth, rdepth)
	case *cast.ReturnStmt:
		l.newUnit(cfg.UnitStmt, x, x.Value, fn, from, x.Position)
	}
}

// sameStream reports the first difference between two unit streams.
func sameStream(got, want []*cfg.Unit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d units, oracle has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Index != w.Index || g.Kind != w.Kind || g.InlinedFrom != w.InlinedFrom ||
			g.InlinedCall != w.InlinedCall || g.Pos != w.Pos ||
			g.Stmt != w.Stmt || g.Expr != w.Expr || g.Fn != w.Fn {
			return fmt.Errorf("unit %d: got %v (call %v), oracle %v (call %v)", i, g, g.InlinedCall, w, w.InlinedCall)
		}
	}
	return nil
}

type srcFile struct{ name, src string }

// checkAgainstOracle parses files and linearizes every function at inline
// and cross-file depths 0-2, with and without a MaxUnits cap, against the
// oracle. Cross-file callees resolve to the first definition in files. It
// returns the units compared and how many of them were marked InlinedCall.
func checkAgainstOracle(t *testing.T, opts cpp.Options, files []srcFile) (units, inlined int) {
	t.Helper()
	asts := make([]*cast.File, len(files))
	defs := map[string]*cast.FuncDecl{}
	for i, f := range files {
		asts[i], _ = cparser.ParseSource(f.name, f.src, opts)
		for _, fn := range asts[i].Functions() {
			if _, ok := defs[fn.Name]; !ok && fn.Body != nil {
				defs[fn.Name] = fn
			}
		}
	}
	resolve := func(name string) *cast.FuncDecl { return defs[name] }
	for i, f := range asts {
		table := ctypes.NewTable(f)
		for _, fn := range f.Functions() {
			for depth := 0; depth <= 2; depth++ {
				for _, maxUnits := range []int{0, 3} {
					o := cfg.LinearizeOptions{Table: table, InlineDepth: depth, MaxUnits: maxUnits, Resolve: resolve, ResolveDepth: depth}
					got := cfg.Linearize(fn, o)
					if err := sameStream(got, slabLinearize(fn, o)); err != nil {
						t.Fatalf("%s: %s depth %d max %d: %v", files[i].name, fn.Name, depth, maxUnits, err)
					}
					units += len(got)
					for _, u := range got {
						if u.InlinedCall {
							inlined++
						}
					}
				}
			}
		}
	}
	if units == 0 {
		t.Fatal("no units: the inputs exercise nothing")
	}
	return units, inlined
}

func TestLinearizeOracleCorpus(t *testing.T) {
	var files []srcFile
	for _, s := range corpus.Generate(corpus.DefaultConfig(42)).Sources() {
		files = append(files, srcFile{s.Name, s.Src})
	}
	checkAgainstOracle(t, cpp.Options{Include: kernelhdr.Headers()}, files)
}

func TestLinearizeOracleFixtures(t *testing.T) {
	var files []srcFile
	for _, fx := range corpus.Fixtures() {
		files = append(files, srcFile{fx.Name, fx.Source})
		if fx.Fixed != "" {
			files = append(files, srcFile{"fixed/" + fx.Name, fx.Fixed})
		}
	}
	checkAgainstOracle(t, cpp.Options{Include: kernelhdr.Headers()}, files)
}

func TestLinearizeOracleTree(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(256, 1))
	include := kernelhdr.Headers()
	for _, h := range tr.Headers {
		include[h.Name] = h.Src
	}
	var files []srcFile
	for _, f := range tr.Files {
		files = append(files, srcFile{f.Name, f.Src})
	}
	if _, inlined := checkAgainstOracle(t, cpp.Options{Include: include}, files); inlined == 0 {
		t.Fatal("no splices: the tree's helpers were not inlined")
	}
}

func parseOne(t *testing.T, src string) *cast.File {
	t.Helper()
	f, errs := cparser.ParseSource("edge.c", src, cpp.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	return f
}

// TestLinearizeCutMidSplice caps the stream inside a spliced callee: the
// stream stops at the cap, the call unit before the splice keeps its
// InlinedCall mark, and nothing after the cut appears.
func TestLinearizeCutMidSplice(t *testing.T) {
	f := parseOne(t, `
void callee(int *p) { p[0] = 1; p[1] = 2; p[2] = 3; p[3] = 4; }
void fn(int *p) { p[9] = 0; callee(p); p[8] = 0; }`)
	table := ctypes.NewTable(f)
	for max := 1; max <= 8; max++ {
		o := cfg.LinearizeOptions{Table: table, InlineDepth: 1, MaxUnits: max}
		got := cfg.Linearize(f.Function("fn"), o)
		if err := sameStream(got, slabLinearize(f.Function("fn"), o)); err != nil {
			t.Fatalf("max %d: %v", max, err)
		}
		if len(got) != min(max, 7) {
			t.Fatalf("max %d: %d units", max, len(got))
		}
		if max >= 2 && !got[1].InlinedCall {
			t.Fatalf("max %d: call unit lost InlinedCall: %v", max, got)
		}
		if max == 4 && got[3].InlinedFrom != "callee" {
			t.Fatalf("max 4: cut outside the splice: %v", got)
		}
	}
}

// TestLinearizeLongSpliceMarksCall splices a callee far longer than any
// starting capacity behind the stream's first unit: an append-grown stream
// would move before InlinedCall is set, so the mark must land through the
// unit's index on the unit the caller sees.
func TestLinearizeLongSpliceMarksCall(t *testing.T) {
	var body strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&body, "p[%d] = %d;\n", i, i)
	}
	f := parseOne(t, "void callee(int *p) {\n"+body.String()+"}\nvoid fn(int *p) { callee(p); callee(p); }")
	o := cfg.LinearizeOptions{Table: ctypes.NewTable(f), InlineDepth: 1}
	got := cfg.Linearize(f.Function("fn"), o)
	if err := sameStream(got, slabLinearize(f.Function("fn"), o)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 402 || !got[0].InlinedCall || !got[201].InlinedCall {
		t.Fatalf("%d units; call units marked %v, %v", len(got), got[0].InlinedCall, got[201].InlinedCall)
	}
	for i, u := range got {
		if u.Index != i || (i != 0 && i != 201 && u.InlinedCall) {
			t.Fatalf("unit %d: %v (call %v)", i, u, u.InlinedCall)
		}
	}
}

// TestLinearizeAllocs bounds a small function's stream to its two exact-size
// slices — the units and the pointers into them — so neither a starting
// slab nor amortized growth can come back unnoticed.
func TestLinearizeAllocs(t *testing.T) {
	f := parseOne(t, `
void fn(struct s *p) {
	if (!p->init)
		return;
	smp_rmb();
	use(p->y);
}`)
	fn := f.Function("fn")
	if n := testing.AllocsPerRun(100, func() { cfg.Linearize(fn, cfg.LinearizeOptions{}) }); n > 2 {
		t.Fatalf("Linearize: %.0f allocations, want at most 2", n)
	}
}
