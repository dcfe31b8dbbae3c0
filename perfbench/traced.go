package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/adult"
	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/service"
)

// Traced-run sizes: enough repetitions that each per-layer median is
// not a single sample, few enough that the replay stays a few seconds.
const (
	probeFlows  = 3  // cold onboarding flows on fresh tables
	probeRounds = 8  // warm reads of each kind against the probe release
	abPairs     = 40 // tracing on/off attack pairs
	replayReps  = 5  // in-process replays of each call
	codecReps   = 200
)

// replayBPrime is the bandwidth every replayed and A/B'd warm attack
// uses: the first point of the probe release's grid, whose prior the
// probe flow has cached on the server and its verification on the
// reference engine, so the HTTP and in-process timings compare.
var replayBPrime = coldGrid[0]

// traced is the --trace 1 run. It reruns the workload's window with
// the benchmark's spans alternately off and on, probes every endpoint
// kind on fresh tables (so every workload reports every layer), A/Bs
// the service's own tracing, and replays one request of each kind
// through the modules' public functions on a reference engine built
// from the probe table, deriving each layer's self time from the
// spans.
func traced(cfg config, e *env) (*result, error) {
	rec := newRecorder()
	res := &result{Metrics: metrics{}}
	put := res.Metrics.put

	// 1. The workload's window in four alternating quarters, spans off
	// then on, so drift hits both halves alike.
	before, err := e.srv.metrics()
	if err != nil {
		return nil, err
	}
	calBefore := calibrate(5)
	var all, off, on window
	for q := 0; q < 4; q++ {
		var r *recorder
		if q%2 == 1 {
			r = rec
		}
		w := runWindow(cfg, e, cfg.window/4, r)
		if r == nil {
			off.merge(w)
		} else {
			on.merge(w)
		}
		all.merge(w)
	}
	after, err := e.srv.metrics()
	if err != nil {
		return nil, err
	}
	put("bench.host_calib_ms", (calBefore+calibrate(5))/2, "ms")
	primary := func(w *window) float64 {
		if cfg.workload == onboardCold {
			return median(w.flowLatencies())
		}
		return median(w.readLatencies(-1))
	}
	put("bench.trace_overhead_ratio", ratio(primary(&on), primary(&off)), "ratio")
	hits := after.Store.Hits - before.Store.Hits
	accesses := hits + after.Store.Misses - before.Store.Misses + after.Store.Shared - before.Store.Shared
	put("service.store_hit_ratio", ratio(float64(hits), float64(accesses)), "ratio")
	put("service.store_accesses", float64(accesses), "count")
	clientS := sum(all.readLatencies(-1))/1e3 + sum(all.flowLatencies())/1e3
	put("obs.unattributed_frac", ratio(clientS-stageSeconds(after)+stageSeconds(before), clientS), "ratio")

	// 2. Cold probes: onboarding flows on fresh tables, bracketed by
	// /metrics for the per-flow pipeline and kernel ledgers.
	probe, err := probeFlowsRun(cfg, e, rec)
	if err != nil {
		return nil, err
	}
	ledger := func(s service.Snapshot, stage string) float64 { return float64(s.Stages[stage].Count) }
	nf := float64(len(probe.flows))
	put("service.pipeline_runs_per_flow", float64(probe.after.PipelineRuns-probe.before.PipelineRuns)/nf, "count")
	put("kernel.prior_passes_per_flow", (ledger(probe.after, "priors")-ledger(probe.before, "priors"))/nf, "count")
	put("kernel.table_builds_per_flow", (ledger(probe.after, "kernel_table")-ledger(probe.before, "kernel_table"))/nf, "count")
	cold := window{flows: append(append([]flow(nil), probe.flows...), all.flows...)}
	put("service.ingest_p50_ms", median(cold.stepLatencies(0)), "ms")
	put("service.anonymize_cold_p50_ms", median(cold.stepLatencies(1)), "ms")
	put("service.sweep_cold_p50_ms", median(cold.stepLatencies(2)), "ms")

	// 3. Warm probes against the last probe flow's release, whose
	// priors on the cold grid the flow has just cached.
	pws, err := buildWarmSet(e.srv, [][]byte{probe.csv}, []releaseConfig{{model: "bt", p: defaultParams}}, coldGrid)
	if err != nil {
		return nil, err
	}
	if err := pws.verify([]*reference{probe.ref}); err != nil {
		return nil, fmt.Errorf("probe warm set: %w", err)
	}
	var probed window
	for round := 0; round < probeRounds; round++ {
		for k := readKind(0); k < numReadKinds; k++ {
			start := time.Now()
			r, ok := pws.read(e.srv, k, 0, round%len(pws.grid))
			lat := time.Since(start)
			rec.add("http."+readNames[k], r.reqID, 0, start, lat)
			probed.reads = append(probed.reads, readSample{kind: k, lat: lat, reqID: r.reqID, ok: ok})
		}
	}
	warm := window{reads: append(append([]readSample(nil), all.reads...), probed.reads...)}
	put("service.attack_p50_ms", median(warm.readLatencies(readAttack)), "ms")
	put("service.risk_p50_ms", median(warm.readLatencies(readRisk)), "ms")
	put("service.anonymize_hit_p50_ms", median(warm.readLatencies(readAnonymizeHit)), "ms")
	put("service.risk_sweep_p50_ms", median(warm.readLatencies(readRiskSweep)), "ms")

	// Open-loop lateness: the window's own reader on mixed, otherwise a
	// short open-loop segment against the probe release.
	late := all.late
	if len(late) == 0 {
		olw := openReader(&env{srv: e.srv, warm: pws}, time.Now().Add(time.Second), cfg.readRate, rngFor(cfg.seed, 0, 9), rec)
		probed.merge(olw)
		late = olw.late
	}
	put("bench.late_p99_ms", quantile(late, 0.99), "ms")

	// 4. The service's own tracing: warm attacks alternated between
	// this server and one booted with DisableTracing.
	httpAttack, tracingRatio, err := tracingAB(e.srv, pws, probe.csv)
	if err != nil {
		return nil, err
	}
	put("obs.tracing_overhead_ratio", tracingRatio, "ratio")

	// 5. The in-process replay.
	rp, err := replay(rec, probe.csv, probe.ref, probe.groups)
	if err != nil {
		return nil, err
	}
	for name, m := range rp.metrics {
		res.Metrics[name] = m
	}
	put("service.residual_ms", httpAttack-rp.attackMS, "ms")
	put("service.layers_sum_ms", rp.codecUS/1e3+rp.attackMS, "ms")

	// Correctness over everything the traced run sent.
	attempted, failed, errs := all.tally()
	pa, pf, perrs := probed.countReads()
	attempted += pa + int64(len(probe.flows))
	failed += pf + probe.failed + rp.failed
	errs = append(append(append(errs, perrs...), probe.errs...), rp.errs...)
	logErrs(errs)
	spans := rec.snapshot()
	put("bench.spans", float64(len(spans)), "count")
	if err := rec.write(cfg.spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.Correct, res.Attempted, res.Failed = failed == 0, attempted, failed
	fmt.Fprintf(os.Stderr, "perfbench: traced %s seed %d: %d spans written to %s\n",
		cfg.workload, cfg.seed, len(spans), cfg.spansPath)
	return res, nil
}

// stageSeconds sums the stage ledger's total seconds.
func stageSeconds(s service.Snapshot) float64 {
	t := 0.0
	for _, st := range s.Stages {
		t += st.TotalSeconds
	}
	return t
}

// probeResult is the cold-probe phase's output: its flows, the
// metrics snapshots around them, and the last flow's table, reference
// engine and release size.
type probeResult struct {
	window
	before, after service.Snapshot
	csv           []byte
	ref           *reference
	groups        int
	failed        int64
	errs          []string
}

func probeFlowsRun(cfg config, e *env, rec *recorder) (*probeResult, error) {
	p := &probeResult{}
	var err error
	if p.before, err = e.srv.metrics(); err != nil {
		return nil, err
	}
	for i := 0; i < probeFlows; i++ {
		seed := tableSeed(cfg.seed, streamProbe, i)
		if p.csv, err = tableCSV(seed); err != nil {
			return nil, err
		}
		f := runFlow(e.srv, seed, p.csv, rec)
		p.flows = append(p.flows, f)
	}
	if p.after, err = e.srv.metrics(); err != nil {
		return nil, err
	}
	// Every probe flow is verified here; the last one's reference
	// engine and release size feed the replay.
	for i := range p.flows {
		if p.ref, err = p.flows[i].verify(); err != nil {
			p.failed++
			p.errs = append(p.errs, err.Error())
		}
	}
	if p.ref == nil {
		return nil, fmt.Errorf("probe flow: %s", p.errs[len(p.errs)-1])
	}
	a, err := decode[service.AnonymizeResponse](p.flows[len(p.flows)-1].steps[1])
	if err != nil {
		return nil, err
	}
	p.groups = a.Groups
	return p, nil
}

// tracingAB boots a second service with DisableTracing, builds the
// probe release on it, and alternates warm attacks between the two
// servers. It returns the traced server's attack p50 and the ratio of
// the two p50s.
func tracingAB(traced *server, pws *warmSet, csv []byte) (float64, float64, error) {
	plain, err := boot(service.Config{DisableTracing: true})
	if err != nil {
		return 0, 0, err
	}
	defer plain.close()
	pset, err := buildWarmSet(plain, [][]byte{csv}, []releaseConfig{pws.rels[0].cfg}, []float64{replayBPrime})
	if err != nil {
		return 0, 0, err
	}
	want := pws.rels[0].attack[0]
	var on, off []float64
	for i := 0; i < abPairs; i++ {
		// Alternate which server goes first within a pair.
		var a, b reply
		var okA, okB bool
		if i%2 == 0 {
			a, okA = pws.read(traced, readAttack, 0, 0)
			b, okB = pset.read(plain, readAttack, 0, 0)
		} else {
			b, okB = pset.read(plain, readAttack, 0, 0)
			a, okA = pws.read(traced, readAttack, 0, 0)
		}
		if !okA || !okB || !bytes.Equal(b.body, want) {
			return 0, 0, fmt.Errorf("tracing A/B: attack bodies differ between tracing on and off: %w", errMismatch)
		}
		on = append(on, ms(a.took))
		off = append(off, ms(b.took))
	}
	return median(on), ratio(median(on), median(off)), nil
}

// replayResult is the in-process replay's metrics.
type replayResult struct {
	metrics  metrics
	attackMS float64 // parallel warm AttackWith p50
	codecUS  float64 // service JSON decode + encode per request
	failed   int64
	errs     []string
}

// replay calls each module's public functions on the probe table and
// derives the per-layer metrics.
func replay(rec *recorder, csv []byte, ref *reference, wantGroups int) (*replayResult, error) {
	out := &replayResult{metrics: metrics{}}
	put := out.metrics.put
	timeIt := func(name string, reps int, fn func() error) ([]float64, error) {
		var t []float64
		for i := 0; i < reps; i++ {
			id := rec.open(name)
			start := time.Now()
			err := fn()
			t = append(t, ms(time.Since(start)))
			rec.close(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		return t, nil
	}

	// dataset: decode one upload body.
	var table *dataset.Table
	t, err := timeIt("dataset.ReadCSV", replayReps, func() (err error) {
		table, err = decodeTable(csv)
		return err
	})
	if err != nil {
		return nil, err
	}
	put("dataset.csv_decode_ms", median(t), "ms")

	// core: engine build, as the service's ingest does it.
	hiers := adult.Hierarchies()
	workers := core.WithWorkers(parallel.Resolve(0))
	if t, err = timeIt("core.New", replayReps, func() error {
		_, err := core.New(table, hiers, nil, nil, workers)
		return err
	}); err != nil {
		return nil, err
	}
	put("core.engine_build_ms", median(t), "ms")

	// kernel: cold passes, each on a fresh estimator.
	fresh := func() (*kernel.Estimator, error) {
		est, err := kernel.NewEstimator(table, hiers, nil)
		if err != nil {
			return nil, err
		}
		est.Workers = parallel.Resolve(0)
		return est, nil
	}
	d := table.Schema.D()
	bvecs := make([][]float64, len(coldGrid))
	for i, bp := range coldGrid {
		bvecs[i] = kernel.UniformBandwidth(d, bp)
	}
	coldPass := func(name string, run func(*kernel.Estimator) error) (float64, error) {
		var ts []float64
		for i := 0; i < replayReps; i++ {
			est, err := fresh()
			if err != nil {
				return 0, err
			}
			tt, err := timeIt(name, 1, func() error { return run(est) })
			if err != nil {
				return 0, err
			}
			ts = append(ts, tt[0])
		}
		return median(ts), nil
	}
	single := func(b float64) func(*kernel.Estimator) error {
		return func(est *kernel.Estimator) error {
			_, err := est.Priors(kernel.UniformBandwidth(d, b))
			return err
		}
	}
	prior, err := coldPass("kernel.Priors", single(0.3))
	if err != nil {
		return nil, err
	}
	batch, err := coldPass("kernel.PriorsBatch", func(est *kernel.Estimator) error {
		_, err := est.PriorsBatch(bvecs)
		return err
	})
	if err != nil {
		return nil, err
	}
	csr, err := coldPass("kernel.Priors", single(csrBPrime))
	if err != nil {
		return nil, err
	}
	singles := 0.0
	for _, bp := range coldGrid {
		s, err := coldPass("kernel.Priors", single(bp))
		if err != nil {
			return nil, err
		}
		singles += s
	}
	put("kernel.prior_pass_ms", prior, "ms")
	put("kernel.batch_pass_ms", batch, "ms")
	put("kernel.csr_pass_ms", csr, "ms")
	put("kernel.batch_over_single", ratio(batch, singles), "ratio")

	// core: warm attack and sweep on the reference engine (the probe
	// flow's verification cached every prior on the cold grid), with
	// the server's worker count.
	res, err := ref.release("bt", defaultParams)
	if err != nil {
		return nil, err
	}
	breach := ref.eng.BreachTest(core.BTPrivacy, defaultParams)
	bw := kernel.UniformBandwidth(d, replayBPrime)
	ctx := context.Background()
	attack := func() error {
		_, err := ref.eng.AttackWith(ctx, nil, res, bw, defaultParams.T, breach)
		return err
	}
	attackT, err := timeIt("core.AttackWith", replayReps*3, attack)
	if err != nil {
		return nil, err
	}
	// Allocations are counted on separate calls: reading the memory
	// statistics stops the world, which must not land in the timings.
	var allocs, allocBytes []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < replayReps; i++ {
		runtime.ReadMemStats(&ms0)
		if err := attack(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		allocBytes = append(allocBytes, float64(ms1.TotalAlloc-ms0.TotalAlloc))
	}
	out.attackMS = median(attackT)
	put("core.attack_ms", out.attackMS, "ms")
	put("core.attack_allocs", median(allocs), "count")
	put("core.attack_bytes", median(allocBytes), "bytes")
	if t, err = timeIt("core.AttackSweepWith", replayReps, func() error {
		_, err := ref.eng.AttackSweepWith(ctx, nil, res, bvecs, defaultParams.T, breach)
		return err
	}); err != nil {
		return nil, err
	}
	put("core.sweep_ms", median(t), "ms")

	// service: the request decode and response encode around an attack.
	body := singleBody("rel_0000000000000000", replayBPrime)
	rep, err := ref.eng.AttackWith(ctx, nil, res, bw, defaultParams.T, breach)
	if err != nil {
		return nil, err
	}
	resp := service.AttackResponse{Release: "rel_0000000000000000", BPrime: replayBPrime, Records: len(rep.Risks), Vulnerable: rep.Vulnerable, WorstRisk: rep.WorstRisk}
	codecStart := time.Now()
	for i := 0; i < codecReps; i++ {
		id := rec.open("service.codec")
		var req service.AttackRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		if _, err := json.Marshal(resp); err != nil {
			return nil, err
		}
		rec.close(id)
	}
	out.codecUS = float64(time.Since(codecStart).Microseconds()) / codecReps
	put("service.codec_us", out.codecUS, "us")

	// The layer split: a single-worker engine whose inference method,
	// disclosure measure and privacy requirement are wrapped, so every
	// call is a span nested under its caller.
	if err := splitLayers(rec, table, hiers, wantGroups, out); err != nil {
		return nil, err
	}
	return out, nil
}

// splitLayers anonymizes and attacks on a single-worker engine whose
// inference method, disclosure measure and privacy requirement are
// wrapped, so every call is a span nested under its caller, and
// derives the mondrian, privacy, core, inference and distance self
// times from the spans. One worker keeps the nesting exact: the
// recorder's stack is shared, and self times add up to the wall time.
func splitLayers(rec *recorder, table *dataset.Table, hiers map[string]*hierarchy.Hierarchy, wantGroups int, out *replayResult) error {
	put := out.metrics.put
	eng, err := core.New(table, hiers, nil, nil, core.WithWorkers(-1))
	if err != nil {
		return err
	}
	method := &timedMethod{inner: eng.Method, rec: rec}
	measure := &timedMeasure{inner: eng.Measure, rec: rec}
	eng.Method, eng.Measure = method, measure
	// Building the requirement runs the cold prior pass at B; it is
	// the kernel's work, measured above, so it stays outside the spans.
	req, err := eng.RequirementByName("bt", defaultParams)
	if err != nil {
		return err
	}
	check := &timedRequirement{inner: req, rec: rec}

	var anonSelf, checkSelf, checks []float64
	var groups int
	var res *anonymize.Result
	for i := 0; i < 2; i++ {
		check.calls.Store(0)
		id := rec.open("core.Anonymize")
		res = eng.Anonymize(check)
		rec.close(id)
		spans := rec.snapshot()
		self := selfTimes(spans)
		_, checkNS := layerStats(spans, self, id, "privacy.Satisfied")
		anonSelf = append(anonSelf, float64(self[id])/1e6)
		checkSelf = append(checkSelf, float64(checkNS)/1e6)
		checks = append(checks, float64(check.calls.Load()))
		groups = len(res.Groups)
	}
	put("mondrian.anonymize_self_ms", median(anonSelf), "ms")
	put("mondrian.groups", float64(groups), "count")
	put("privacy.checks_per_anonymize", median(checks), "count")
	put("privacy.check_self_ms", median(checkSelf), "ms")
	if groups != wantGroups {
		out.failed++
		out.errs = append(out.errs, fmt.Sprintf("replayed Mondrian made %d groups, the served release %d", groups, wantGroups))
	}

	breach := eng.BreachTest(core.BTPrivacy, defaultParams)
	bw := kernel.UniformBandwidth(table.Schema.D(), replayBPrime)
	// Warm the attack's prior outside the spans, as it is on the server.
	if _, err := eng.Priors(bw); err != nil {
		return err
	}
	var coreSelf, infCalls, infUS, infShare, distCalls, distUS, distShare []float64
	for i := 0; i < 3; i++ {
		method.calls.Store(0)
		measure.calls.Store(0)
		id := rec.open("core.AttackWith")
		if _, err := eng.AttackWith(context.Background(), nil, res, bw, defaultParams.T, breach); err != nil {
			rec.close(id)
			return err
		}
		rec.close(id)
		spans := rec.snapshot()
		self := selfTimes(spans)
		var total int64
		for _, s := range spans {
			if s.ID == id {
				total = s.dur()
			}
		}
		_, infNS := layerStats(spans, self, id, "inference.Posteriors")
		_, distNS := layerStats(spans, self, id, "distance.Distance")
		ni, nd := float64(method.calls.Load()), float64(measure.calls.Load())
		coreSelf = append(coreSelf, float64(self[id])/1e6)
		infCalls, distCalls = append(infCalls, ni), append(distCalls, nd)
		infUS = append(infUS, ratio(float64(infNS)/1e3, ni))
		distUS = append(distUS, ratio(float64(distNS)/1e3, nd))
		infShare = append(infShare, ratio(float64(infNS), float64(total)))
		distShare = append(distShare, ratio(float64(distNS), float64(total)))
	}
	put("core.attack_self_ms", median(coreSelf), "ms")
	put("inference.calls_per_attack", median(infCalls), "count")
	put("inference.self_us_per_call", median(infUS), "us")
	put("inference.share_of_attack", median(infShare), "ratio")
	put("distance.calls_per_attack", median(distCalls), "count")
	put("distance.self_us_per_call", median(distUS), "us")
	put("distance.share_of_attack", median(distShare), "ratio")
	return nil
}
