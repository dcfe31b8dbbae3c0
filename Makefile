# CI entry points. `make ci` is what every change must keep green:
# gofmt enforcement, vet, the detlint invariant suite (determinism,
# concurrency, and hot-path analyzers under internal/analysis), build,
# the full test suite under the race detector (the parallel engine's
# and the job queue's safety net), one pass over every benchmark so
# the bench targets cannot rot, a 10-iteration smoke over the lane and
# adaptive-inference benchmarks (enough iterations to catch a
# perf-structure regression that a single pass hides, cheap enough for
# every run), vet and the short self-tests of the perfbench module (its
# own go.mod, so `go build ./...` here never compiles it and an API
# change that breaks it would otherwise pass), a short fuzz smoke over the
# untrusted-input decoders (CSV rows, JSON schema specs), and the
# serve-restart smoke (boot, ingest, kill, reboot, verify
# byte-identical disk recovery with zero pipeline runs), the
# observability smoke (boot with a diagnostics listener, drive load,
# verify the stages ledger, /debug/traces, and pprof answer), and the
# cost smoke (calibrate the per-stage cost model under load, verify
# the OpenMetrics exposition and the fit error bound).

GO ?= go

.PHONY: ci fmt vet lint build test race bench bench-json bench-smoke perfbench-check fuzz cover serve loadgen restart-smoke obs-smoke cost-smoke

ci: fmt vet lint build race bench bench-smoke perfbench-check fuzz restart-smoke obs-smoke cost-smoke

# gofmt -l as a check: fails listing any file that needs formatting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# detlint: the repo's own go vet -vettool-style pass (a standalone
# driver, since x/tools isn't vendored in this offline tree). Builds
# incrementally via the go build cache; DETLINT_FLAGS passes extras
# (e.g. -md detlint.md for a CI step summary, -json detlint.json for
# the machine-readable artifact). The committed ignore budget caps the
# tree's lint:ignore count: suppressions can be retired, never accrue.
DETLINT_FLAGS ?=
lint:
	$(GO) build -o bin/detlint ./cmd/detlint
	./bin/detlint -ignore-budget .detlint-ignore-budget $(DETLINT_FLAGS) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Focused 10-iteration pass over the hot-path kernels this repo's perf
# claims rest on: the lane-shaped prior pass and the adaptive-inference
# attack.
bench-smoke:
	$(GO) test -run '^$$' -bench '(PriorsLanes|AttackAdaptive)' -benchtime=10x .

# The repository benchmark (perfbench/, run by `bash perfbench/run.sh`)
# is a module of its own: vet it and run its short self-tests so an API
# removal it depends on fails here rather than at benchmark time.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Record the benchmark suite as BENCH JSON (name → ns/op, B/op,
# allocs/op, plus deltas against BENCH_BASELINE when set):
#   make bench-json                             # rewrites BENCH_5.json
#   make bench-json BENCH_OUT=BENCH_6.json BENCH_BASELINE=BENCH_5.json
BENCH_OUT ?= BENCH_5.json
BENCH_BASELINE ?=
bench-json:
	GO="$(GO)" sh scripts/bench.sh "$(BENCH_OUT)" "$(BENCH_BASELINE)"

# Short fuzz smoke over the two parsers that face untrusted input.
# `go test -fuzz` takes one target per invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 5s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 5s ./internal/schema

# Coverage: per-package profiles plus the aggregate statement rate.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# Serving layer: `make serve` runs the HTTP service on :8080;
# `make loadgen` drives a running instance with the default mixed
# anonymize/attack/risk scenario and prints the throughput report.
serve:
	$(GO) run ./cmd/serve

loadgen:
	$(GO) run ./cmd/loadgen

# Black-box durability check: kill-and-restart cmd/serve on a data
# dir and verify recovery (see scripts/restart_smoke.sh).
restart-smoke:
	GO="$(GO)" sh scripts/restart_smoke.sh

# Black-box observability check: boot with -debug-addr, drive loadgen,
# assert the stages ledger, trace ring, and pprof surface all answer
# (see scripts/obs_smoke.sh).
obs-smoke:
	GO="$(GO)" sh scripts/obs_smoke.sh

# Black-box cost-model check: boot, calibrate with two loadgen runs at
# different dataset sizes, then assert the OpenMetrics exposition
# parses and the priors/mondrian fits hit their sample and error
# bounds (see scripts/cost_smoke.sh and scripts/costcheck).
cost-smoke:
	GO="$(GO)" sh scripts/cost_smoke.sh
