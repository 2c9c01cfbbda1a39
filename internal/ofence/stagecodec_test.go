package ofence

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"reflect"
	"testing"

	"ofence/internal/cast"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/rescache"
)

// analyzeJSONWithStages runs a two-file analysis over the given stage
// family and returns the serialized result.
func analyzeJSONWithStages(t *testing.T, stages *rescache.Stages) []byte {
	t.Helper()
	p := NewProjectWithStages(stages)
	p.AddSources([]SourceFile{
		{Name: "w.c", Src: incWriter},
		{Name: "r.c", Src: incReaderBuggy},
	})
	res, err := p.AnalyzeParallel(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := res.View()
	data, err := json.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPreprocessStageStoreRoundTrip: a fresh stage family (a "restarted
// process") sharing only the ArtifactStore serves the preprocess artifacts
// from blobs, and the analysis output is byte-identical to the cold run.
func TestPreprocessStageStoreRoundTrip(t *testing.T) {
	store := rescache.NewMemStore(0)

	cold := rescache.NewStages(0)
	cold.AttachStore(store, StageCodecs())
	coldJSON := analyzeJSONWithStages(t, cold)
	if st := cold.Stats()["preprocess"]; st.StorePuts == 0 {
		t.Fatalf("cold run published no preprocess blobs: %+v", st)
	}

	warm := rescache.NewStages(0)
	warm.AttachStore(store, StageCodecs())
	warmJSON := analyzeJSONWithStages(t, warm)
	st := warm.Stats()["preprocess"]
	if st.StoreHits != 2 {
		t.Fatalf("store hits = %d, want 2 (stats %+v)", st.StoreHits, st)
	}
	if st.Misses != 0 {
		t.Fatalf("preprocess ran %d times despite store blobs", st.Misses)
	}
	if string(coldJSON) != string(warmJSON) {
		t.Fatalf("store-served analysis diverged:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}
}

// TestPreprocessStageStoreRoundTripDisk is the same over a disk store with
// a close/reopen in between — the restart-survival contract.
func TestPreprocessStageStoreRoundTripDisk(t *testing.T) {
	dir := t.TempDir()
	store, err := rescache.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := rescache.NewStages(0)
	cold.AttachStore(store, StageCodecs())
	coldJSON := analyzeJSONWithStages(t, cold)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := rescache.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	warm := rescache.NewStages(0)
	warm.AttachStore(store2, StageCodecs())
	warmJSON := analyzeJSONWithStages(t, warm)
	if st := warm.Stats()["preprocess"]; st.StoreHits != 2 || st.Misses != 0 {
		t.Fatalf("disk round trip: %+v", st)
	}
	if string(coldJSON) != string(warmJSON) {
		t.Fatal("disk-served analysis diverged from cold run")
	}
}

// TestPreprocessCodecErrorStrings: diagnostics survive the byte round trip
// as strings.
func TestPreprocessCodecErrorStrings(t *testing.T) {
	store := rescache.NewMemStore(0)
	const bad = "#include \"no/such/header.h\"\nint x;\n"

	cold := rescache.NewStages(0)
	cold.AttachStore(store, StageCodecs())
	p1 := NewProjectWithStages(cold)
	fu1 := p1.AddSource("bad.c", bad)

	warm := rescache.NewStages(0)
	warm.AttachStore(store, StageCodecs())
	p2 := NewProjectWithStages(warm)
	fu2 := p2.AddSource("bad.c", bad)

	if len(fu1.Errs) != len(fu2.Errs) {
		t.Fatalf("error counts diverge: %d vs %d", len(fu1.Errs), len(fu2.Errs))
	}
	for i := range fu1.Errs {
		if fu1.Errs[i].Error() != fu2.Errs[i].Error() {
			t.Fatalf("error %d diverged: %q vs %q", i, fu1.Errs[i], fu2.Errs[i])
		}
	}
}

// TestPreprocessCodecKeepsSpans: the preprocess blob carries the memoized
// header spans, so a store-served token stream still shares header parses,
// and a blob written before spans existed still decodes and parses
// identically (it only shares nothing).
func TestPreprocessCodecKeepsSpans(t *testing.T) {
	p := NewProject()
	p.AddHeader("s.h", "struct s { int a; };\ntypedef int sint;\nint g;\n")
	const src = "#include \"s.h\"\nsint x;\nvoid f(struct s *p) { p->a = x; }\n"
	pre := cpp.Preprocess("a.c", src, p.cppOptions(p.envSnapshot()))
	if len(pre.Spans) != 1 {
		t.Fatalf("spans = %v, want the header's", pre.Spans)
	}
	pa := &preArtifact{pre: pre, hash: pre.Fingerprint("a.c")}
	data, err := encodePreArtifact(pa)
	if err != nil {
		t.Fatal(err)
	}
	v, err := decodePreArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*preArtifact)
	if got.hash != pa.hash || !reflect.DeepEqual(got.pre.Spans, pre.Spans) || !reflect.DeepEqual(got.pre.Tokens, pre.Tokens) {
		t.Fatalf("round trip lost the artifact: spans %v, want %v", got.pre.Spans, pre.Spans)
	}

	// The blob as it was before spans: same field names, no Spans.
	type oldPreBlob struct {
		Hash   string
		Tokens []ctoken.Token
		Errors []string
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&oldPreBlob{Hash: pa.hash, Tokens: pre.Tokens}); err != nil {
		t.Fatal(err)
	}
	v, err = decodePreArtifact(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	old := v.(*preArtifact)
	if old.pre.Spans != nil || old.hash != pa.hash {
		t.Fatalf("old blob decoded with spans %v, hash %q", old.pre.Spans, old.hash)
	}

	printed := func(f *cast.File) []string {
		var out []string
		for _, d := range f.Decls {
			out = append(out, cast.Print(d))
		}
		return out
	}
	want := printed(cparser.New(pre.Tokens, nil, nil).ParseFile("a.c"))
	hm := cparser.NewHeaderMemo()
	for i, art := range []*preArtifact{got, got, old} {
		psr := cparser.New(art.pre.Tokens, art.pre.Spans, hm)
		if decls := printed(psr.ParseFile("a.c")); !reflect.DeepEqual(decls, want) {
			t.Fatalf("parse %d: %q, want %q", i, decls, want)
		}
		shared, _ := psr.Shared()
		if wantShared := map[int]int64{0: 0, 1: 3, 2: 0}[i]; shared != wantShared {
			t.Fatalf("parse %d shared %d decls, want %d", i, shared, wantShared)
		}
	}
}
