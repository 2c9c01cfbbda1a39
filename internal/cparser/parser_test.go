package cparser

import (
	"context"
	"strings"
	"testing"

	"ofence/internal/cast"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
)

func parse(t *testing.T, src string) *cast.File {
	t.Helper()
	f, errs := ParseSource("test.c", src, cpp.Options{})
	for _, err := range errs {
		t.Fatalf("parse error: %v", err)
	}
	return f
}

func parseLoose(t *testing.T, src string) (*cast.File, []error) {
	t.Helper()
	return ParseSource("test.c", src, cpp.Options{})
}

func TestParseStruct(t *testing.T) {
	f := parse(t, `
struct my_struct {
	int x;
	int init;
	unsigned long flags;
	struct other *next;
	char name[16];
};`)
	ss := f.Structs()
	if len(ss) != 1 {
		t.Fatalf("got %d structs", len(ss))
	}
	s := ss[0]
	if s.Tag != "my_struct" || s.Union {
		t.Errorf("tag=%q union=%v", s.Tag, s.Union)
	}
	wantFields := []struct {
		name, typ string
	}{
		{"x", "int"}, {"init", "int"}, {"flags", "unsigned long"},
		{"next", "struct other*"}, {"name", "char[]"},
	}
	if len(s.Fields) != len(wantFields) {
		t.Fatalf("got %d fields: %+v", len(s.Fields), s.Fields)
	}
	for i, w := range wantFields {
		if s.Fields[i].Name != w.name || s.Fields[i].Type.String() != w.typ {
			t.Errorf("field %d = %s %s, want %s %s", i, s.Fields[i].Type, s.Fields[i].Name, w.typ, w.name)
		}
	}
}

func TestParseUnion(t *testing.T) {
	f := parse(t, "union u { int a; float b; };")
	ss := f.Structs()
	if len(ss) != 1 || !ss[0].Union || ss[0].Tag != "u" {
		t.Fatalf("got %+v", ss)
	}
}

func TestParseAnonymousNestedStructFlattened(t *testing.T) {
	f := parse(t, `
struct outer {
	int a;
	struct {
		int b;
		int c;
	};
	union {
		int d;
	};
};`)
	s := f.Structs()[0]
	var names []string
	for _, fd := range s.Fields {
		names = append(names, fd.Name)
	}
	if strings.Join(names, ",") != "a,b,c,d" {
		t.Errorf("fields = %v", names)
	}
}

func TestParseBitfield(t *testing.T) {
	f := parse(t, "struct bf { unsigned int flag : 1; unsigned int rest : 31; };")
	s := f.Structs()[0]
	if len(s.Fields) != 2 || !s.Fields[0].BitField {
		t.Fatalf("got %+v", s.Fields)
	}
}

func TestParseTypedefStruct(t *testing.T) {
	f := parse(t, `
typedef struct {
	unsigned sequence;
} seqcount_custom_t;
seqcount_custom_t *get(void);`)
	var td *cast.TypedefDecl
	for _, d := range f.Decls {
		if x, ok := d.(*cast.TypedefDecl); ok {
			td = x
		}
	}
	if td == nil || td.Name != "seqcount_custom_t" || td.Struct == nil {
		t.Fatalf("typedef = %+v", td)
	}
	if td.Struct.Tag != "seqcount_custom_t" {
		t.Errorf("anonymous struct tag = %q", td.Struct.Tag)
	}
	// The typedef name must be usable as a type afterwards.
	fn := f.Function("")
	_ = fn
	found := false
	for _, d := range f.Decls {
		if fd, ok := d.(*cast.FuncDecl); ok && fd.Name == "get" {
			found = true
			if fd.Result.Name != "seqcount_custom_t" || fd.Result.Pointers != 1 {
				t.Errorf("get result = %v", fd.Result)
			}
		}
	}
	if !found {
		t.Error("prototype using typedef not parsed")
	}
}

func TestParseTypedefScalar(t *testing.T) {
	f := parse(t, "typedef unsigned long ulong_custom;\nulong_custom v;")
	if len(f.Decls) != 2 {
		t.Fatalf("decls = %d", len(f.Decls))
	}
	vd, ok := f.Decls[1].(*cast.VarDecl)
	if !ok || vd.Type.Name != "ulong_custom" {
		t.Fatalf("var = %+v", f.Decls[1])
	}
}

func TestParseEnum(t *testing.T) {
	f := parse(t, "enum state { IDLE, RUNNING = 2, DONE };")
	ed, ok := f.Decls[0].(*cast.EnumDecl)
	if !ok || ed.Tag != "state" || len(ed.Names) != 3 {
		t.Fatalf("enum = %+v", f.Decls[0])
	}
}

func TestParseFunction(t *testing.T) {
	f := parse(t, `
static void writer(struct my_struct *b) {
	b->y = 1;
	smp_wmb();
	b->init = 1;
}`)
	fn := f.Function("writer")
	if fn == nil {
		t.Fatal("writer not found")
	}
	if !fn.Static || fn.Result.Name != "void" {
		t.Errorf("static=%v result=%v", fn.Static, fn.Result)
	}
	if len(fn.Params) != 1 || fn.Params[0].Name != "b" || fn.Params[0].Type.Struct != "my_struct" || fn.Params[0].Type.Pointers != 1 {
		t.Fatalf("params = %+v", fn.Params)
	}
	if len(fn.Body.Stmts) != 3 {
		t.Fatalf("body stmts = %d", len(fn.Body.Stmts))
	}
	// First statement: b->y = 1
	es, ok := fn.Body.Stmts[0].(*cast.ExprStmt)
	if !ok {
		t.Fatalf("stmt 0 = %T", fn.Body.Stmts[0])
	}
	as, ok := es.X.(*cast.AssignExpr)
	if !ok {
		t.Fatalf("stmt 0 expr = %T", es.X)
	}
	fe, ok := as.X.(*cast.FieldExpr)
	if !ok || fe.Name != "y" || !fe.Arrow {
		t.Fatalf("lhs = %+v", as.X)
	}
	// Second: smp_wmb()
	call := fn.Body.Stmts[1].(*cast.ExprStmt).X.(*cast.CallExpr)
	if call.FunName() != "smp_wmb" || len(call.Args) != 0 {
		t.Fatalf("call = %+v", call)
	}
}

func TestParsePrototype(t *testing.T) {
	f := parse(t, "int probe(struct device *dev, int flags);")
	fd, ok := f.Decls[0].(*cast.FuncDecl)
	if !ok || fd.Body != nil || len(fd.Params) != 2 {
		t.Fatalf("proto = %+v", f.Decls[0])
	}
}

func TestParseVariadicFunction(t *testing.T) {
	f := parse(t, "int printk(const char *fmt, ...);")
	fd := f.Decls[0].(*cast.FuncDecl)
	if !fd.Variadic {
		t.Error("variadic not detected")
	}
}

func TestParseControlFlow(t *testing.T) {
	f := parse(t, `
void fn(int n) {
	int i;
	for (i = 0; i < n; i++) {
		if (i == 3)
			continue;
		else if (i > 5)
			break;
	}
	while (n > 0)
		n--;
	do {
		n++;
	} while (n < 10);
	switch (n) {
	case 1:
		n = 2;
		break;
	default:
		n = 0;
	}
	goto out;
out:
	return;
}`)
	fn := f.Function("fn")
	if fn == nil {
		t.Fatal("fn not found")
	}
	kinds := []string{}
	for _, s := range fn.Body.Stmts {
		switch s.(type) {
		case *cast.DeclStmt:
			kinds = append(kinds, "decl")
		case *cast.ForStmt:
			kinds = append(kinds, "for")
		case *cast.WhileStmt:
			kinds = append(kinds, "while")
		case *cast.DoWhileStmt:
			kinds = append(kinds, "do")
		case *cast.SwitchStmt:
			kinds = append(kinds, "switch")
		case *cast.GotoStmt:
			kinds = append(kinds, "goto")
		case *cast.LabelStmt:
			kinds = append(kinds, "label")
		case *cast.ReturnStmt:
			kinds = append(kinds, "return")
		}
	}
	want := "decl for while do switch goto label return"
	if strings.Join(kinds, " ") != want {
		t.Errorf("stmt kinds = %v, want %s", kinds, want)
	}
}

func TestParseForWithDecl(t *testing.T) {
	f := parse(t, "void fn(void) { for (int i = 0; i < 4; i++) {} }")
	fs := f.Function("fn").Body.Stmts[0].(*cast.ForStmt)
	ds, ok := fs.Init.(*cast.DeclStmt)
	if !ok || ds.Name != "i" {
		t.Fatalf("for init = %+v", fs.Init)
	}
}

func TestParseExpressions(t *testing.T) {
	f := parse(t, `
void fn(struct s *p, int *arr) {
	int v = p->a + p->b * 2;
	v = (p->flags & 0x4) ? arr[v] : -v;
	v = !p->ok && (v << 2) >= 7;
	p->cnt++;
	--v;
	v = sizeof(struct s);
	v = sizeof v;
	*arr = v;
	v = (int)p->a;
	fn2(p, v, arr[1]);
}`)
	fn := f.Function("fn")
	if fn == nil || len(fn.Body.Stmts) != 10 {
		t.Fatalf("fn = %+v", fn)
	}
	ds := fn.Body.Stmts[0].(*cast.DeclStmt)
	be, ok := ds.Init.(*cast.BinaryExpr)
	if !ok || be.Op != ctoken.Plus {
		t.Fatalf("init = %+v", ds.Init)
	}
	mul, ok := be.Y.(*cast.BinaryExpr)
	if !ok || mul.Op != ctoken.Star {
		t.Fatalf("precedence wrong: %+v", be.Y)
	}
	if _, ok := fn.Body.Stmts[1].(*cast.ExprStmt).X.(*cast.AssignExpr); !ok {
		t.Error("ternary assign not parsed")
	}
	if _, ok := fn.Body.Stmts[5].(*cast.ExprStmt).X.(*cast.AssignExpr).Y.(*cast.SizeofTypeExpr); !ok {
		t.Error("sizeof(type) not parsed")
	}
	if u, ok := fn.Body.Stmts[6].(*cast.ExprStmt).X.(*cast.AssignExpr).Y.(*cast.UnaryExpr); !ok || !u.Sizeof {
		t.Error("sizeof expr not parsed")
	}
	if c, ok := fn.Body.Stmts[8].(*cast.ExprStmt).X.(*cast.AssignExpr).Y.(*cast.CastExpr); !ok || c.Type.Name != "int" {
		t.Error("cast not parsed")
	}
	call := fn.Body.Stmts[9].(*cast.ExprStmt).X.(*cast.CallExpr)
	if call.FunName() != "fn2" || len(call.Args) != 3 {
		t.Errorf("call = %+v", call)
	}
}

func TestParseNestedFieldAccess(t *testing.T) {
	f := parse(t, "void fn(struct a *p) { p->b.c->d = p->x[3].y; }")
	fn := f.Function("fn")
	as := fn.Body.Stmts[0].(*cast.ExprStmt).X.(*cast.AssignExpr)
	lhs := as.X.(*cast.FieldExpr)
	if lhs.Name != "d" || !lhs.Arrow {
		t.Fatalf("lhs = %+v", lhs)
	}
	mid := lhs.X.(*cast.FieldExpr)
	if mid.Name != "c" || mid.Arrow {
		t.Fatalf("mid = %+v", mid)
	}
	rhs := as.Y.(*cast.FieldExpr)
	if rhs.Name != "y" || rhs.Arrow {
		t.Fatalf("rhs = %+v", rhs)
	}
	if _, ok := rhs.X.(*cast.IndexExpr); !ok {
		t.Fatalf("rhs.X = %T", rhs.X)
	}
}

func TestParseGNUStatementExpr(t *testing.T) {
	f := parse(t, "void fn(int *p) { int v = ({ int t = *p; t; }); use(v); }")
	fn := f.Function("fn")
	ds := fn.Body.Stmts[0].(*cast.DeclStmt)
	se, ok := ds.Init.(*cast.StmtExpr)
	if !ok || len(se.Block.Stmts) != 2 {
		t.Fatalf("init = %+v", ds.Init)
	}
}

func TestParseGNUConditionalOmitted(t *testing.T) {
	f := parse(t, "void fn(int a, int b) { int v = a ?: b; use(v); }")
	ds := f.Function("fn").Body.Stmts[0].(*cast.DeclStmt)
	if _, ok := ds.Init.(*cast.CondExpr); !ok {
		t.Fatalf("init = %T", ds.Init)
	}
}

func TestParseInitializerList(t *testing.T) {
	f := parse(t, "struct ops my_ops = { .open = do_open, .close = do_close, 3 };")
	vd := f.Decls[0].(*cast.VarDecl)
	il, ok := vd.Init.(*cast.InitListExpr)
	if !ok || len(il.Elems) != 3 {
		t.Fatalf("init = %+v", vd.Init)
	}
}

func TestParseMultipleDeclarators(t *testing.T) {
	f := parse(t, "void fn(void) { int a = 1, b, *c = 0; use(a, b, c); }")
	fn := f.Function("fn")
	blk, ok := fn.Body.Stmts[0].(*cast.BlockStmt)
	if !ok || len(blk.Stmts) != 3 {
		t.Fatalf("stmt 0 = %+v", fn.Body.Stmts[0])
	}
	c := blk.Stmts[2].(*cast.DeclStmt)
	if c.Name != "c" || c.Type.Pointers != 1 {
		t.Errorf("c = %+v", c)
	}
}

func TestParseAttributesSkipped(t *testing.T) {
	f := parse(t, `static __attribute__((unused)) int x __attribute__((aligned(8)));
void __attribute__((noinline)) fn(void) { }`)
	if f.Function("fn") == nil {
		t.Error("fn not parsed past attributes")
	}
}

func TestParseAsm(t *testing.T) {
	f := parse(t, `void fn(void) { asm volatile("mfence" ::: "memory"); }`)
	fn := f.Function("fn")
	if _, ok := fn.Body.Stmts[0].(*cast.AsmStmt); !ok {
		t.Fatalf("stmt = %T", fn.Body.Stmts[0])
	}
}

func TestParseKernelTypedefsKnown(t *testing.T) {
	f := parse(t, "void fn(void) { u32 v = 1; u64 w = 2; atomic_t a; use(v, w, a); }")
	fn := f.Function("fn")
	if _, ok := fn.Body.Stmts[0].(*cast.DeclStmt); !ok {
		t.Fatalf("u32 decl = %T", fn.Body.Stmts[0])
	}
}

func TestParseRecoversFromBadDecl(t *testing.T) {
	f, errs := parseLoose(t, `
int (*weird)(void);
void good(void) { ok(); }`)
	_ = errs
	if f.Function("good") == nil {
		t.Error("parser did not recover to parse good()")
	}
}

func TestParseListing1(t *testing.T) {
	// Listing 1 from the paper.
	f := parse(t, `
struct my_struct { int init; int y; };
void reader(struct my_struct *a) {
	if (!a->init)
		return;
	read_barrier();
	f(a->y);
}
void writer(struct my_struct *b) {
	b->y = 1;
	write_barrier();
	b->init = 1;
}`)
	if f.Function("reader") == nil || f.Function("writer") == nil {
		t.Fatal("functions missing")
	}
	reader := f.Function("reader")
	ifs, ok := reader.Body.Stmts[0].(*cast.IfStmt)
	if !ok {
		t.Fatalf("reader stmt 0 = %T", reader.Body.Stmts[0])
	}
	u, ok := ifs.Cond.(*cast.UnaryExpr)
	if !ok || u.Op != ctoken.Not {
		t.Fatalf("cond = %+v", ifs.Cond)
	}
	fe, ok := u.X.(*cast.FieldExpr)
	if !ok || fe.Name != "init" {
		t.Fatalf("cond field = %+v", u.X)
	}
}

func TestParseSeqcountLoop(t *testing.T) {
	// The shape of Listing 3.
	f := parse(t, `
void get_counters(struct xt_table_info *t) {
	unsigned int v;
	u64 bcnt, pcnt;
	do {
		v = read_seqcount_begin(s);
		bcnt = tmp->bcnt;
		pcnt = tmp->pcnt;
	} while (read_seqcount_retry(s, v));
}`)
	fn := f.Function("get_counters")
	if fn == nil {
		t.Fatal("get_counters missing")
	}
	var dw *cast.DoWhileStmt
	cast.Walk(fn, func(n cast.Node) bool {
		if d, ok := n.(*cast.DoWhileStmt); ok {
			dw = d
		}
		return true
	})
	if dw == nil {
		t.Fatal("do-while missing")
	}
	if c, ok := dw.Cond.(*cast.CallExpr); !ok || c.FunName() != "read_seqcount_retry" {
		t.Fatalf("cond = %+v", dw.Cond)
	}
}

func TestParsePreprocessedMacros(t *testing.T) {
	src := `
#define READ_ONCE(x) (x)
#define barrier_call() smp_mb()
void fn(struct s *p) {
	int v = READ_ONCE(p->state);
	barrier_call();
	use(v);
}`
	f := parse(t, src)
	fn := f.Function("fn")
	if len(fn.Body.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(fn.Body.Stmts))
	}
	call := fn.Body.Stmts[1].(*cast.ExprStmt).X.(*cast.CallExpr)
	if call.FunName() != "smp_mb" {
		t.Errorf("macro call = %+v", call)
	}
}

func TestWalkAndHelpers(t *testing.T) {
	f := parse(t, `
void fn(struct s *p) {
	p->a = g(p->b);
}`)
	fn := f.Function("fn")
	calls := cast.Calls(fn)
	if len(calls) != 1 || calls[0].FunName() != "g" {
		t.Errorf("calls = %+v", calls)
	}
	fields := cast.FieldAccesses(fn)
	if len(fields) != 2 {
		t.Errorf("fields = %d", len(fields))
	}
	ids := cast.Idents(fn)
	if len(ids) < 3 {
		t.Errorf("idents = %d", len(ids))
	}
}

func TestWalkPrune(t *testing.T) {
	f := parse(t, "void fn(void) { if (a) { b(); } c(); }")
	count := 0
	cast.Walk(f, func(n cast.Node) bool {
		if _, ok := n.(*cast.IfStmt); ok {
			return false // prune
		}
		if c, ok := n.(*cast.CallExpr); ok {
			count++
			if c.FunName() == "b" {
				t.Error("pruned subtree visited")
			}
		}
		return true
	})
	if count != 1 {
		t.Errorf("calls visited = %d, want 1 (c only)", count)
	}
}

// Round trip: print a parsed file and parse it again; the second tree must
// print identically (printer output is a fixed point).
func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		`struct s { int a; int b; };
void fn(struct s *p, int n) {
	int v = p->a + n * 2;
	if (!p->b)
		return;
	smp_rmb();
	for (v = 0; v < n; v++)
		g(p->a, v);
	while (n > 0)
		n--;
	do {
		n += 3;
	} while (n < 10);
	switch (n) {
	case 1:
		break;
	default:
		n = 0;
	}
	p->a = v > 2 ? v : -v;
	h((unsigned long)p->b, sizeof(struct s), p->a++, --v);
}`,
		`void fn2(struct q *p) {
	p->x.y->z[3] = *p->w & 0xff;
	goto out;
out:
	return;
}`,
	}
	for _, src := range srcs {
		f1 := parse(t, src)
		out1 := cast.Print(f1)
		f2, errs := ParseSource("rt.c", out1, cpp.Options{})
		if len(errs) > 0 {
			t.Fatalf("reparse errors: %v\nprinted:\n%s", errs, out1)
		}
		out2 := cast.Print(f2)
		if out1 != out2 {
			t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
		}
	}
}

func TestParserTerminatesOnGarbage(t *testing.T) {
	// Must not loop forever on arbitrary token soup.
	garbage := []string{
		")}{(", "struct {", "void f( {", "int ;;;", "= = =", "case :",
		"typedef;", "#define\n", "((((((((((", "void f(void) { (a",
	}
	for _, g := range garbage {
		f, _ := ParseSource("g.c", g, cpp.Options{})
		_ = f // reaching here means termination
	}
}

func TestParseTypedefVariants(t *testing.T) {
	// typedef of named struct reference.
	f := parse(t, "struct real { int x; };\ntypedef struct real alias_t;\nalias_t v;")
	vd, ok := f.Decls[2].(*cast.VarDecl)
	if !ok || vd.Type.Name != "alias_t" {
		t.Fatalf("decl = %+v", f.Decls[2])
	}
	// typedef of pointer-to-struct.
	f = parse(t, "struct real { int x; };\ntypedef struct real *realp;\nrealp p;")
	if f.Function("") != nil {
		t.Fatal("unexpected fn")
	}
	// typedef of function pointer.
	f = parse(t, "typedef int (*handler_t)(int);\nhandler_t h;")
	found := false
	for _, d := range f.Decls {
		if td, ok := d.(*cast.TypedefDecl); ok && td.Name == "handler_t" {
			found = true
			if td.Type.Pointers == 0 {
				t.Error("function pointer typedef lost pointer")
			}
		}
	}
	if !found {
		t.Error("handler_t not declared")
	}
	// typedef enum.
	f = parse(t, "typedef enum { A_ONE, A_TWO } ab_t;\nab_t x;")
	if _, ok := f.Decls[len(f.Decls)-1].(*cast.VarDecl); !ok {
		t.Errorf("enum typedef name not usable: %+v", f.Decls)
	}
	// typedef with array.
	f = parse(t, "typedef char buf_t[64];\nbuf_t b;")
	for _, d := range f.Decls {
		if td, ok := d.(*cast.TypedefDecl); ok && td.Name == "buf_t" {
			if td.Type.ArrayDims != 1 {
				t.Errorf("array typedef dims = %d", td.Type.ArrayDims)
			}
		}
	}
}

func TestParseCommaExpression(t *testing.T) {
	f := parse(t, "void fn(int a, int b) { a = 1, b = 2; use(a, b); }")
	es := f.Function("fn").Body.Stmts[0].(*cast.ExprStmt)
	if _, ok := es.X.(*cast.CommaExpr); !ok {
		t.Fatalf("expr = %T", es.X)
	}
}

func TestParseFunctionPointerParamSkipped(t *testing.T) {
	f, _ := parseLoose(t, `
int apply(int (*fn)(int, int), int a) {
	return fn(a, a);
}`)
	fd := f.Function("apply")
	if fd == nil {
		t.Fatal("apply not parsed")
	}
	// The fn param is recorded with a name and pointer depth.
	found := false
	for _, p := range fd.Params {
		if p.Name == "fn" {
			found = true
		}
	}
	if !found {
		t.Errorf("function pointer param lost: %+v", fd.Params)
	}
}

func TestParseStructFieldFunctionPointer(t *testing.T) {
	f := parse(t, `
struct ops {
	int (*open)(struct inode *i);
	void (*close)(struct inode *i);
	int refcnt;
};`)
	s := f.Structs()[0]
	names := map[string]bool{}
	for _, fd := range s.Fields {
		names[fd.Name] = true
	}
	for _, want := range []string{"open", "close", "refcnt"} {
		if !names[want] {
			t.Errorf("field %s missing: %+v", want, names)
		}
	}
}

func TestParseCaseRange(t *testing.T) {
	// GNU case ranges are flattened but must parse.
	f := parse(t, `
void fn(int n) {
	switch (n) {
	case 1 ... 5:
		a();
		break;
	default:
		b();
	}
}`)
	if f.Function("fn") == nil {
		t.Fatal("fn lost")
	}
}

func TestParseStringAndCharLiterals(t *testing.T) {
	f := parse(t, `void fn(void) { log("msg %c", 'x'); }`)
	call := cast.Calls(f.Function("fn"))[0]
	if len(call.Args) != 2 {
		t.Fatalf("args = %d", len(call.Args))
	}
	if l, ok := call.Args[0].(*cast.Lit); !ok || l.Kind != ctoken.String {
		t.Errorf("arg 0 = %+v", call.Args[0])
	}
	if l, ok := call.Args[1].(*cast.Lit); !ok || l.Kind != ctoken.Char {
		t.Errorf("arg 1 = %+v", call.Args[1])
	}
}

func TestParseErrorsAccessor(t *testing.T) {
	p := New(nil, nil, nil)
	if len(p.Errors()) != 0 {
		t.Error("fresh parser has errors")
	}
}

func TestParseStaticAssertSkipped(t *testing.T) {
	f := parse(t, "_Static_assert(1, \"ok\");\nint after;")
	found := false
	for _, d := range f.Decls {
		if vd, ok := d.(*cast.VarDecl); ok && vd.Name == "after" {
			found = true
		}
	}
	if !found {
		t.Error("declaration after _Static_assert lost")
	}
}

func TestParseExternDeclarations(t *testing.T) {
	f := parse(t, "extern int shared_counter;\nextern void helper(void);")
	vd, ok := f.Decls[0].(*cast.VarDecl)
	if !ok || !vd.Extern {
		t.Fatalf("extern var = %+v", f.Decls[0])
	}
}

func TestParseNestedStructTypeInField(t *testing.T) {
	// A named field whose type is an inline tagged struct definition.
	f := parse(t, `
struct outer {
	struct inner { int z; } member;
	int tail;
};`)
	var outer *cast.StructDecl
	for _, sd := range f.Structs() {
		if sd.Tag == "outer" {
			outer = sd
		}
	}
	if outer == nil {
		t.Fatal("outer lost")
	}
	names := map[string]bool{}
	for _, fd := range outer.Fields {
		names[fd.Name] = true
	}
	if !names["member"] || !names["tail"] {
		t.Errorf("fields = %v", names)
	}
}

// ParseTokens is the pure parse-stage entry point of the incremental
// pipeline: preprocessing happens once, up front, and the parse consumes
// the token stream. It must agree with the fused ParseSource path.
func TestParseTokensMatchesParseSource(t *testing.T) {
	src := `
struct s { int a; int b; };
void w(struct s *p) {
	p->a = 1;
	smp_wmb();
	p->b = 1;
	unterminated(
`
	fused, fusedErrs := ParseSource("pt.c", src, cpp.Options{})
	pre := cpp.Preprocess("pt.c", src, cpp.Options{})
	split, splitErrs := ParseTokens(context.Background(), "pt.c", pre)
	if got, want := len(split.Decls), len(fused.Decls); got != want {
		t.Fatalf("decls = %d, want %d", got, want)
	}
	if got, want := len(splitErrs), len(fusedErrs); got != want {
		t.Fatalf("errors = %d, want %d", got, want)
	}
	for i := range splitErrs {
		if splitErrs[i].Error() != fusedErrs[i].Error() {
			t.Errorf("error %d: %q vs %q", i, splitErrs[i], fusedErrs[i])
		}
	}
}
