package service

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// promContentType is the OpenMetrics exposition content type the
// ?format=prom form of GET /metrics serves.
const promContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// renderProm renders a metrics snapshot as OpenMetrics text: the
// counters as *_total, the per-endpoint latency and stage-ledger
// log₂-µs histograms as cumulative le-bucket histograms in seconds, the
// fitted cost model as per-stage gauges, and a small process-health
// block sampled from runtime/metrics. Output is byte-deterministic for
// a given snapshot: families render in fixed order and every map walks
// its keys sorted.
func renderProm(s Snapshot) []byte {
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n# HELP %s %s\n%s %s\n",
			name, name, help, name, promFloat(v))
	}
	counter := func(name, help string, v int64) {
		// OpenMetrics counters carry the _total suffix on the sample
		// but name the family without it.
		fmt.Fprintf(&b, "# TYPE %s counter\n# HELP %s %s\n%s_total %d\n",
			name, name, help, name, v)
	}

	gauge("repro_uptime_seconds", "seconds since server start", s.UptimeSeconds)
	counter("repro_requests", "requests accepted across all endpoints", s.Requests)
	gauge("repro_in_flight_requests", "requests currently executing", float64(s.InFlight))
	counter("repro_request_errors", "responses with status >= 400", s.Errors)
	counter("repro_pipeline_runs", "anonymization pipelines actually executed", s.PipelineRuns)
	counter("repro_dataset_builds", "dataset and engine constructions actually executed", s.DatasetBuilds)

	counter("repro_store_hits", "release-store residency hits", s.Store.Hits)
	counter("repro_store_shared", "requests that shared an in-flight computation", s.Store.Shared)
	counter("repro_store_misses", "requests that ran the computation", s.Store.Misses)
	counter("repro_store_evictions", "release-store LRU evictions", s.Store.Evictions)
	gauge("repro_store_releases", "releases currently resident", float64(s.Store.Releases))
	gauge("repro_store_datasets", "datasets currently resident", float64(s.Store.Datasets))

	counter("repro_sweep_requests", "attack/risk requests using the bprimes form", s.Sweeps.Requests)
	counter("repro_sweep_points", "bandwidth points served through sweeps", s.Sweeps.Points)

	counter("repro_jobs_submitted", "async jobs enqueued", s.Jobs.Submitted)
	counter("repro_jobs_deduped", "submissions collapsed into an active job", s.Jobs.Deduped)
	gauge("repro_jobs_pending", "jobs waiting in the queue", float64(s.Jobs.Pending))
	gauge("repro_jobs_running", "jobs currently executing", float64(s.Jobs.Running))
	counter("repro_jobs_done", "jobs completed successfully", s.Jobs.Done)
	counter("repro_jobs_failed", "jobs that ended in failure", s.Jobs.Failed)

	counter("repro_persist_writes", "files written through to the durable tier", s.Persist.Writes)
	counter("repro_persist_errors", "durable-tier read/write/integrity failures", s.Persist.Errors)
	counter("repro_persist_release_loads", "releases recovered from disk", s.Persist.ReleaseLoads)
	counter("repro_persist_dataset_loads", "datasets rebuilt from persisted manifests", s.Persist.DatasetLoads)

	renderEndpoints(&b, s.Endpoints)
	renderHistograms(&b, "repro_stage_duration_seconds", "stage", "pipeline stage pass durations", s.Stages)
	renderCostModel(&b, s)
	renderProcessHealth(&b)

	b.WriteString("# EOF\n")
	return []byte(b.String())
}

// renderEndpoints emits per-endpoint request/error counters and the
// endpoint latency histograms.
func renderEndpoints(b *strings.Builder, eps map[string]EndpointStats) {
	if len(eps) == 0 {
		return
	}
	names := sortedKeys(eps)
	fmt.Fprintf(b, "# TYPE repro_endpoint_requests counter\n# HELP repro_endpoint_requests requests per endpoint\n")
	for _, name := range names {
		fmt.Fprintf(b, "repro_endpoint_requests_total{endpoint=\"%s\"} %d\n", promLabel(name), eps[name].Count)
	}
	fmt.Fprintf(b, "# TYPE repro_endpoint_errors counter\n# HELP repro_endpoint_errors error responses per endpoint\n")
	for _, name := range names {
		fmt.Fprintf(b, "repro_endpoint_errors_total{endpoint=\"%s\"} %d\n", promLabel(name), eps[name].Errors)
	}
	hists := make(map[string]obs.StageStats, len(eps))
	for name, e := range eps {
		hists[name] = obs.StageStats{Count: e.Count, TotalSeconds: e.TotalSeconds, Buckets: e.Buckets}
	}
	renderHistograms(b, "repro_endpoint_latency_seconds", "endpoint", "request latency over the server's lifetime", hists)
}

// maxLeMicros is the log₂-µs histograms' top bin boundary. The top bin
// absorbs overflow, so its nominal boundary undercounts what it holds;
// the renderer folds it into +Inf instead of emitting a false le.
const maxLeMicros = int64(1) << 25

// renderHistograms emits one histogram family of log₂-µs histograms,
// one series per label value, as cumulative le buckets in seconds.
func renderHistograms(b *strings.Builder, name, label, help string, series map[string]obs.StageStats) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(b, "# TYPE %s histogram\n# HELP %s %s\n", name, name, help)
	for _, key := range sortedKeys(series) {
		st := series[key]
		lv := label + "=\"" + promLabel(key) + "\""
		var cum int64
		for _, bk := range st.Buckets {
			cum += bk.Count
			if bk.LeMicros >= maxLeMicros {
				continue
			}
			fmt.Fprintf(b, "%s_bucket{%s,le=\"%s\"} %d\n", name, lv, promFloat(float64(bk.LeMicros)/1e6), cum)
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, lv, st.Count)
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, lv, promFloat(st.TotalSeconds))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, lv, st.Count)
	}
}

// renderCostModel emits the fitted per-stage cost model as gauges, so
// a scraper can alert on calibration drift (med_abs_rel_err creeping
// up) or watch coefficients move across deploys.
func renderCostModel(b *strings.Builder, s Snapshot) {
	if len(s.CostModel) == 0 {
		return
	}
	names := sortedKeys(s.CostModel)
	family := func(name, help string, value func(stage string) float64) {
		fmt.Fprintf(b, "# TYPE %s gauge\n# HELP %s %s\n", name, name, help)
		for _, stage := range names {
			fmt.Fprintf(b, "%s{stage=\"%s\"} %s\n", name, promLabel(stage), promFloat(value(stage)))
		}
	}
	family("repro_cost_model_a_us_per_unit", "fitted cost slope: microseconds per work unit",
		func(st string) float64 { return s.CostModel[st].A })
	family("repro_cost_model_b_us", "fitted fixed overhead per stage pass in microseconds",
		func(st string) float64 { return s.CostModel[st].B })
	family("repro_cost_model_r2", "in-sample coefficient of determination of the stage fit",
		func(st string) float64 { return s.CostModel[st].R2 })
	family("repro_cost_model_med_abs_rel_err", "in-sample median absolute relative error of the stage fit",
		func(st string) float64 { return s.CostModel[st].MedAbsRelErr })
	family("repro_cost_model_samples", "shaped observations in the stage's calibration window",
		func(st string) float64 { return float64(s.CostModel[st].Samples) })
}

// renderProcessHealth samples runtime/metrics for the process block:
// goroutines, heap in use, GC cycles, and the GC pause distribution.
// Metrics absent in this Go runtime are skipped, not errors.
func renderProcessHealth(b *strings.Builder) {
	samples := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/pauses:seconds"},
	}
	metrics.Read(samples)
	emitU64 := func(s metrics.Sample, name, help, kind string) {
		if s.Value.Kind() != metrics.KindUint64 {
			return
		}
		if kind == "counter" {
			fmt.Fprintf(b, "# TYPE %s counter\n# HELP %s %s\n%s_total %d\n",
				name, name, help, name, s.Value.Uint64())
			return
		}
		fmt.Fprintf(b, "# TYPE %s gauge\n# HELP %s %s\n%s %d\n",
			name, name, help, name, s.Value.Uint64())
	}
	emitU64(samples[0], "repro_process_goroutines", "live goroutines", "gauge")
	emitU64(samples[1], "repro_process_heap_bytes", "bytes of live heap objects", "gauge")
	emitU64(samples[2], "repro_process_gc_cycles", "completed GC cycles", "counter")
	if h := samples[3]; h.Value.Kind() == metrics.KindFloat64Histogram {
		renderRuntimeHistogram(b, "repro_process_gc_pause_seconds", "stop-the-world GC pause durations", h.Value.Float64Histogram())
	}
}

// renderRuntimeHistogram converts a runtime/metrics Float64Histogram
// (bucket boundaries, per-bin counts) to cumulative le buckets.
func renderRuntimeHistogram(b *strings.Builder, name, help string, h *metrics.Float64Histogram) {
	fmt.Fprintf(b, "# TYPE %s histogram\n# HELP %s %s\n", name, name, help)
	total := uint64(0)
	for _, c := range h.Counts {
		total += c
	}
	var cum uint64
	for i, count := range h.Counts {
		cum += count
		if count == 0 {
			continue
		}
		// Counts[i] covers (Buckets[i], Buckets[i+1]]; a +Inf upper
		// boundary folds into the +Inf line below.
		le := h.Buckets[i+1]
		if le > 1e300 {
			continue
		}
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", name, promFloat(le), cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(b, "%s_count %d\n", name, total)
}

// promFloat renders a float in the exposition format's shortest
// round-trip form.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabel escapes a label value per the exposition format: backslash
// first, then newline and double quote. Values are interpolated between
// literal quotes, never with %q, so this is the single escaping layer.
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// sortedKeys returns a map's keys in sorted order — every renderer
// walks maps through this, keeping the exposition byte-deterministic.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
