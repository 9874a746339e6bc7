GO ?= go

.PHONY: all build test race vet bench bench-json bench-smoke lint lint-fix-check dfa analyze serve quickstart-http fabric-smoke

all: build test vet lint analyze

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-json runs the benchmark suite via cmd/ruubench and records a
# BENCH_<stamp>.json trajectory point at the repo root, comparing
# against the newest committed point (report-only; see -compare for a
# gating diff). docs/OBSERVABILITY.md describes the schema.
bench-json:
	$(GO) run ./cmd/ruubench -benchtime $(or $(BENCHTIME),1s)

# bench-smoke is the CI variant: one iteration per benchmark, written
# to out/ (not committed), plus a schema check over the committed
# trajectory and the fresh point.
bench-smoke:
	@mkdir -p out
	$(GO) run ./cmd/ruubench -benchtime 1x -out out/BENCH_smoke.json
	$(GO) run ./cmd/ruubench -checkschema BENCH_*.json out/BENCH_smoke.json

# lint runs ruulint, the repo's own static-analysis suite
# (see docs/ANALYSIS.md). A finding is a build failure. One invocation
# produces every format off a single load and shared callgraph: the
# plain-text findings (the CI problem matcher consumes these), JSON
# lines in out/ruulint.json for tooling, a SARIF 2.1.0 log in
# out/ruulint.sarif for GitHub code scanning, a per-pass timing
# summary on stderr, and a machine-readable timing report in
# out/lint-timings.json. The build comes first: it leaves the
# standard library's export data in the Go build cache, which is what
# the loader reads, so a run takes well under a second.
lint:
	$(GO) build ./...
	@mkdir -p out
	$(GO) run ./cmd/ruulint -out out/ruulint.json -sarif out/ruulint.sarif -timings -timings-out out/lint-timings.json ./...

# analyze runs ruudfa, the ISA-level static analysis (see docs/DFA.md):
# value-aware program lint (abstract interpretation), the static
# memory-dependence summary, the hazard census, and the dataflow-limit
# oracle, over the built-in Livermore kernels and the standalone
# example programs. An error-severity finding is a build failure;
# advisory notes are not. The per-program results are also written as
# JSON lines to out/dfa.json and as a SARIF 2.1.0 log to out/dfa.sarif
# (the CI artifacts; the SARIF log feeds GitHub code scanning).
analyze:
	$(GO) build ./...
	@mkdir -p out
	@$(GO) run ./cmd/ruudfa -json -sarif out/dfa.sarif > out/dfa.json; st=$$?; \
	if [ $$st -ne 0 ] && [ $$st -ne 1 ] ; then exit $$st; fi; \
	$(GO) run ./cmd/ruudfa
	$(GO) run ./cmd/ruudfa examples/asm/*.s

# dfa is the historical name for the analyze gate.
dfa: analyze

# serve runs the ruuserve HTTP API on :8093 (see docs/SERVICE.md).
serve:
	$(GO) run ./cmd/ruuserve

# quickstart-http exercises the ruuserve HTTP API end to end: the
# client self-hosts the service on a loopback port, simulates a
# program, runs an async sweep job, checks the cache-hit metrics, and
# drains the server. CI runs this to cover the HTTP path.
quickstart-http:
	$(GO) run ./examples/quickstart/client

# fabric-smoke boots a two-worker sweep fabric (coordinator + workers,
# all in-process on loopback ports), pushes a small /v1/batch through
# it, and diffs the NDJSON stream byte-for-byte against a serial
# reference server — including after killing one worker mid-run. CI
# runs this to cover the distributed path end to end.
fabric-smoke:
	$(GO) run ./examples/quickstart/fabric

# lint-fix-check is the CI fail-fast gate: formatting, then the one
# ruulint run of `make lint` (with its JSON, SARIF and timing
# artifacts), both failing before the slower test, race and bench
# stages run.
lint-fix-check:
	@unformatted=$$(gofmt -l . | grep -v '^out/' || true); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(MAKE) lint
