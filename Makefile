# CI entry points. `make ci` is what every change must keep green:
# gofmt enforcement, vet, the detlint invariant suite (determinism,
# concurrency, and hot-path analyzers under internal/analysis), an
# arm64 cross-compile that rejects fused multiply-adds in the disclosure
# measure and in inference, build,
# the full test suite under the race detector (the parallel engine's
# and the job queue's safety net), one pass over every benchmark so
# the bench targets cannot rot, a 10-iteration smoke over the prior-pass,
# adaptive-inference and warm-attack benchmarks (enough iterations to
# catch a perf-structure regression that a single pass hides, cheap
# enough for every run), vet and the short self-tests of the perfbench module (its
# own go.mod, so `go build ./...` here never compiles it and an API
# change that breaks it would otherwise pass), a run of every example
# program and a small-size run of each batch binary under cmd/ (the
# build compiles them; only these execute them), a short
# fuzz smoke over the untrusted-input decoders (CSV rows, JSON schema
# specs, attack/risk and anonymize request bodies, estimate query
# strings), and the serve-restart smoke (boot, ingest, kill, reboot,
# verify byte-identical disk recovery with zero pipeline runs), the
# observability smoke (boot with a diagnostics listener, drive load,
# verify the stages ledger, /debug/traces, and pprof answer), and the
# cost smoke (calibrate the per-stage cost model under load, verify
# the OpenMetrics exposition and the fit error bound).

GO ?= go

.PHONY: ci fmt vet lint fma-check build test race bench bench-smoke perfbench-check examples cmds fuzz cover serve loadgen restart-smoke obs-smoke cost-smoke loc

ci: fmt vet lint fma-check build race bench bench-smoke perfbench-check examples cmds fuzz restart-smoke obs-smoke cost-smoke

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

# No fused multiply-add in the disclosure measure or in inference. The
# Go spec lets a compiler fuse x*y + z into one rounding unless an
# explicit float64(...) conversion rounds the product; amd64 never
# fuses, arm64 does, so without the conversions a gain or a posterior
# could differ by GOARCH. Cross-compiles each package for arm64
# (offline, no emulator) and fails on any fused instruction in its
# assembly, or on a package whose assembly lacks the function named
# beside it (package:function).
fma-check:
	@for pf in distance:js inference:Exact; do pkg=$${pf%%:*}; fn=$${pf#*:}; \
	out="$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/$$pkg 2>&1)" || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "TEXT.*$$pkg\.$$fn[(.]" || { echo "fma-check: no arm64 assembly for internal/$$pkg"; exit 1; }; \
	if echo "$$out" | grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD'; then \
		echo "fma-check: fused multiply-add in internal/$$pkg on arm64"; exit 1; fi; done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Focused 10-iteration pass over the hot-path kernels this repo's perf
# claims rest on: the support-intersection prior pass, the
# adaptive-inference attack, the warm Ω attack, the two bound-first
# paths — the worst-case risk pass, on all cores and on one, and
# sequential (B,t) Mondrian — and the disclosure measure on dense and
# on served pairs, with their allocation counts.
bench-smoke:
	$(GO) test -run '^$$' -bench '(Priors$$|AttackAdaptive|BreachTest$$|Fig3aRisk$$|Fig3aRiskSequential$$|MondrianBT$$|SmoothedJS$$)' -benchtime=10x -benchmem .

# The repository benchmark (perfbench/, run by `bash perfbench/run.sh`)
# is a module of its own: vet it and run its short self-tests so an API
# removal it depends on fails here rather than at benchmark time.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Run every example program end to end from the repo root; any
# non-zero exit fails the target.
examples:
	@for d in examples/*/main.go; do d=$$(dirname $$d); echo "$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; done

# Run the batch binaries once each at a small size from the repo root:
# attack under (B,t) and skyline, anonymize with stats, datagen, and
# one experiments figure. Any non-zero exit fails the target.
cmds:
	$(GO) run ./cmd/attack -n 300 -model bt >/dev/null
	$(GO) run ./cmd/attack -n 300 -model skyline >/dev/null
	$(GO) run ./cmd/anonymize -n 300 -stats >/dev/null
	$(GO) run ./cmd/datagen -n 50 >/dev/null
	$(GO) run ./cmd/experiments -n 200 -fig fig3b >/dev/null

# Short fuzz smoke over the decoders that face untrusted input: CSV
# rows, JSON schema specs, attack/risk and anonymize request bodies,
# and estimate query strings. `go test -fuzz` takes one target per
# invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 5s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 5s ./internal/schema
	$(GO) test -run '^$$' -fuzz '^FuzzAttackRequest$$' -fuzztime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzAnonymizeRequest$$' -fuzztime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzEstimateQuery$$' -fuzztime 5s ./internal/service

# Coverage: per-package profiles plus the aggregate statement rate.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# Go line delta of the working tree against BASE (default HEAD):
# added, deleted and net lines of non-test Go and of test Go (_test.go
# files and testdata/), from `git diff --numstat`. Git diffs tracked
# files only, so `git add -N` new files first. Not part of ci.
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- '*.go' | awk ' \
		{ k = ($$3 ~ /_test\.go$$/ || $$3 ~ /(^|\/)testdata\//) ? "test" : "non-test"; add[k] += $$1; del[k] += $$2 } \
		END { split("non-test test", ks, " "); for (i = 1; i <= 2; i++) { k = ks[i]; \
			printf "%s Go: +%d -%d net %d\n", k, add[k], del[k], add[k] - del[k] } }'

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
