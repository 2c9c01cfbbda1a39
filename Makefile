# OFence-Go build and evaluation targets.

GO ?= go

.PHONY: all build vet lint fuzz test test-race race race-fleet bench bench-incremental bench-pairing bench-fleet bench-confidence bench-frontend bench-treescale profile-cold serve eval eval-json corpus trace-demo clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static checks: go vet, gofmt (failing on any unformatted file), and the
# documentation lint — docs/CLI.md must cover every registered CLI flag and
# internal/obs must document every exported identifier (docs_test.go).
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) test . -run TestDocs

# Short fuzz passes: the parser robustness target (no panics, no hangs) and
# the two header-memo differentials (memoized and fresh preprocessing
# agree; shared and fresh header parses agree).
fuzz:
	$(GO) test ./internal/cparser/ -fuzz FuzzParseSource -fuzztime 30s
	$(GO) test ./internal/cpp/ -run '^$$' -fuzz FuzzPreprocessMemo -fuzztime 30s
	$(GO) test ./internal/cparser/ -run '^$$' -fuzz FuzzParseMemo -fuzztime 30s

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Alias: the race-detector gate for the concurrent analysis paths — the
# parallel extraction fan-out (including interprocedural mode), the pairing
# checkers, the serving subsystem, and the diagnostics engine.
race: test-race

# One benchmark per paper table/figure (see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# The incremental pipeline's headline number: cold vs one-file re-analysis
# over a 64-file project. Reference results live in BENCH_incremental.json.
bench-incremental:
	$(GO) test -run '^$$' -bench BenchmarkReanalyzeOneFile -benchtime 3s .

# Pairing-engine headline number: the pre-index pairer vs the
# interned/indexed engine (sequential and sharded) over a synthetic
# ~2000-site kernel-scale corpus (internal/sitegen). Refreshes
# BENCH_pairing.json via the measurement harness in
# internal/ofence/pair_bench_test.go.
bench-pairing:
	OFENCE_BENCH_PAIRING_OUT=$(CURDIR)/BENCH_pairing.json \
		$(GO) test ./internal/ofence/ -run '^TestWriteBenchPairingJSON$$' -count=1 -v

# Fleet headline number: draining a cold synthetic-corpus batch through a
# coordinator with 1 vs 4 workers over the full wire protocol, results
# asserted byte-identical between widths. Refreshes BENCH_fleet.json via
# the harness in internal/fleet/bench_test.go (see docs/FLEET.md).
bench-fleet:
	OFENCE_BENCH_FLEET_OUT=$(CURDIR)/BENCH_fleet.json \
		$(GO) test ./internal/fleet/ -run '^TestWriteBenchFleetJSON$$' -count=1 -v

# Confidence-ranking headline number: precision/recall/F1 of the ranking
# pass (internal/rank) on the labeled confidence corpus, swept over the
# -min-confidence threshold grid. Refreshes BENCH_confidence.json via the
# harness in internal/report/confidence_test.go (see docs/RANKING.md).
bench-confidence:
	OFENCE_BENCH_CONFIDENCE_OUT=$(CURDIR)/BENCH_confidence.json \
		$(GO) test ./internal/report/ -run '^TestWriteBenchConfidenceJSON$$' -count=1 -v

# Frontend headline number: the pre-overhaul frontend (rune lexer,
# heap-allocated AST) vs the zero-copy/interned/arena frontend, plus cold
# whole-project analysis classic vs pipelined at Workers=8. Asserts the new
# frontend's analysis output byte-identical to the legacy oracle, then
# refreshes BENCH_frontend.json via the harness in
# internal/ofence/frontend_bench_test.go.
bench-frontend:
	OFENCE_BENCH_FRONTEND_OUT=$(CURDIR)/BENCH_frontend.json \
		$(GO) test ./internal/ofence/ -run '^TestWriteBenchFrontendJSON$$' -count=1 -v

# Tree-scale headline number: cold full-run analysis of a generated
# 2,048-file kernel tree (internal/sitegen GenerateTree) at Workers=8,
# pre-PR sequential global phases vs the sharded/SCC-scheduled ones, JSON
# asserted byte-identical to the sequential oracle at Workers 1 and 8
# before recording. Refreshes BENCH_treescale.json via the harness in
# internal/ofence/treescale_bench_test.go.
bench-treescale:
	OFENCE_BENCH_TREESCALE_OUT=$(CURDIR)/BENCH_treescale.json \
		$(GO) test ./internal/ofence/ -run '^TestWriteBenchTreescaleJSON$$' -count=1 -v -timeout 30m

# Cold-run profile behind the tree-cold numbers: writes the 2,048-file
# tree (ofence-corpus -tree 2048 -seed 1), then cpu.pprof and mem.pprof of
# one `ofence -interproc 1 -json -workers 1` run over it, all under the
# git-ignored .bench_build/profile/, and prints the top allocation sites.
PROFILE_DIR := .bench_build/profile
profile-cold:
	rm -rf $(PROFILE_DIR)
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/ofence ./cmd/ofence
	$(GO) build -o $(PROFILE_DIR)/ofence-corpus ./cmd/ofence-corpus
	$(PROFILE_DIR)/ofence-corpus -tree 2048 -seed 1 $(PROFILE_DIR)/tree > /dev/null
	$(PROFILE_DIR)/ofence -interproc 1 -json -workers 1 \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof -memprofile $(PROFILE_DIR)/mem.pprof \
		$(PROFILE_DIR)/tree > $(PROFILE_DIR)/out.json
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=15 \
		$(PROFILE_DIR)/ofence $(PROFILE_DIR)/mem.pprof

# Race-detector gate for the fleet subsystem: coordinator lease juggling,
# worker heartbeats, the shared artifact stores.
race-fleet:
	$(GO) test -race -count=1 ./internal/fleet/ ./internal/rescache/

# Run the analysis daemon (see README "Running as a service").
serve:
	$(GO) run ./cmd/ofence-serve

# Regenerate the paper's evaluation as text.
eval:
	$(GO) run ./cmd/ofence-eval

# Machine-readable evaluation; exits nonzero if any correctness gate fails.
eval-json:
	$(GO) run ./cmd/ofence-eval -json

# Write a synthetic labelled corpus to ./corpus-out.
corpus:
	$(GO) run ./cmd/ofence-corpus -seed 42 -truth corpus-out

# Traced analysis over the synthetic corpus: stage tree on stderr plus a
# Perfetto-loadable trace-demo.json (see docs/OBSERVABILITY.md).
trace-demo: corpus
	$(GO) run ./cmd/ofence -trace -trace-out trace-demo.json corpus-out

clean:
	rm -rf corpus-out trace-demo.json
	$(GO) clean ./...
