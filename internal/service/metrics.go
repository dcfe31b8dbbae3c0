package service

import (
	"expvar"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/obs"
)

// endpointLatency is one endpoint's instrumentation: the latency
// histogram plus the error tally (the histogram's count is the request
// count). Registered at route time, so requests observe it without a
// lock.
type endpointLatency struct {
	hist   obs.Hist
	errors atomic.Int64
}

// Metrics is the server's instrumentation: expvar counters for request
// and cache accounting plus per-endpoint latency histograms. The counters
// are expvar values but are deliberately not Published globally, so
// many servers (tests, benchmarks) can coexist in one process; GET
// /metrics serves a JSON snapshot instead of the global expvar page.
type Metrics struct {
	start time.Time

	Requests expvar.Int // requests accepted (all endpoints)
	InFlight expvar.Int // requests currently executing
	Errors   expvar.Int // responses with status >= 400

	PipelineRuns  expvar.Int // anonymization pipelines actually executed
	DatasetBuilds expvar.Int // dataset+engine constructions actually executed

	StoreHits      expvar.Int // release-store residency hits
	StoreShared    expvar.Int // requests that shared an in-flight computation
	StoreMisses    expvar.Int // requests that ran the computation
	StoreEvictions expvar.Int // LRU evictions

	SweepRequests expvar.Int // attack/risk requests using the bprimes form
	SweepPoints   expvar.Int // bandwidth points served through sweeps

	JobsSubmitted expvar.Int // async jobs enqueued
	JobsDeduped   expvar.Int // submissions collapsed into an active job
	JobsRunning   expvar.Int // jobs currently executing (gauge)
	JobsDone      expvar.Int // jobs completed successfully
	JobsFailed    expvar.Int // jobs that ended in failure

	PersistWrites       expvar.Int // files written through to the durable tier
	PersistErrors       expvar.Int // durable-tier read/write/integrity failures
	PersistReleaseLoads expvar.Int // releases recovered from disk
	PersistDatasetLoads expvar.Int // datasets rebuilt from persisted manifests

	// endpoints is keyed "<METHOD> <path>"; route fills it while the
	// server is built, and it is read-only once serving starts.
	endpoints map[string]*endpointLatency
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now(), endpoints: map[string]*endpointLatency{}}
}

// endpoint registers the named endpoint's instrumentation. Only
// construction calls it.
func (m *Metrics) endpoint(name string) *endpointLatency {
	e := &endpointLatency{}
	m.endpoints[name] = e
	return e
}

// observe records one completed request, counting responses with
// status >= 400 into the endpoint's error tally (the global Errors
// counter aggregates across endpoints).
func (e *endpointLatency) observe(d time.Duration, status int) {
	e.hist.Observe(d)
	if status >= 400 {
		e.errors.Add(1)
	}
}

// countStore folds a store access into the cache counters. A disk
// recovery counts as a hit — the work was not redone — with the
// durable tier's own ledger (PersistReleaseLoads) recording where the
// value came from.
func (m *Metrics) countStore(src source) {
	switch src {
	case sourceHit, sourceDisk:
		m.StoreHits.Add(1)
	case sourceShared:
		m.StoreShared.Add(1)
	default:
		m.StoreMisses.Add(1)
	}
}

// EndpointStats is one endpoint's latency summary in a snapshot, over
// the server's lifetime. P50Milli and P99Milli are bucket estimates
// (obs.BucketQuantile), within a factor √2 of the true quantile;
// TotalSeconds and Buckets carry the histogram itself.
type EndpointStats struct {
	Count        int64            `json:"count"`
	Errors       int64            `json:"errors"`
	P50Milli     float64          `json:"p50_ms"`
	P99Milli     float64          `json:"p99_ms"`
	TotalSeconds float64          `json:"total_seconds"`
	Buckets      []obs.HistBucket `json:"buckets,omitempty"`
}

// StoreStats is the release-store section of a snapshot.
type StoreStats struct {
	Hits      int64 `json:"hits"`
	Shared    int64 `json:"shared"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Releases  int   `json:"releases"`
	Datasets  int   `json:"datasets"`
}

// SweepStats is the bandwidth-sweep section of a snapshot. The
// amortization a deployment gets from the bprimes form is
// Points/Requests: how many attack evaluations ride on each request's
// single inference dispatch.
type SweepStats struct {
	Requests int64 `json:"requests"`
	Points   int64 `json:"points"`
}

// JobStats is the async-job section of a snapshot.
type JobStats struct {
	Submitted int64 `json:"submitted"`
	Deduped   int64 `json:"deduped"`
	Pending   int   `json:"pending"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
}

// PersistStats is the durable-tier section of a snapshot.
type PersistStats struct {
	Writes       int64 `json:"writes"`
	Errors       int64 `json:"errors"`
	ReleaseLoads int64 `json:"release_loads"`
	DatasetLoads int64 `json:"dataset_loads"`
}

// Snapshot is the GET /metrics payload.
type Snapshot struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Requests      int64                    `json:"requests"`
	InFlight      int64                    `json:"in_flight"`
	Errors        int64                    `json:"errors"`
	PipelineRuns  int64                    `json:"pipeline_runs"`
	DatasetBuilds int64                    `json:"dataset_builds"`
	Store         StoreStats               `json:"store"`
	Sweeps        SweepStats               `json:"sweeps"`
	Jobs          JobStats                 `json:"jobs"`
	Persist       PersistStats             `json:"persist"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	// Stages is the aggregate per-stage duration ledger (count, total
	// seconds, log-bucketed histogram) from the tracing substrate —
	// empty when tracing is disabled.
	Stages map[string]obs.StageStats `json:"stages"`
	// CostModel is the calibrated per-stage cost model: fitted
	// coefficients and quality per stage, keyed by stage name. Stages
	// without shaped observations are absent; the map is empty when
	// tracing is disabled.
	CostModel map[string]costmodel.Fit `json:"cost_model"`
}

// snapshot assembles the current counter and latency state. stages is
// the tracer's ledger snapshot (empty map when tracing is off); cost
// the fitted cost model's.
func (m *Metrics) snapshot(releases, datasets, pendingJobs int, stages map[string]obs.StageStats, cost map[string]costmodel.Fit) Snapshot {
	s := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      m.Requests.Value(),
		InFlight:      m.InFlight.Value(),
		Errors:        m.Errors.Value(),
		PipelineRuns:  m.PipelineRuns.Value(),
		DatasetBuilds: m.DatasetBuilds.Value(),
		Store: StoreStats{
			Hits:      m.StoreHits.Value(),
			Shared:    m.StoreShared.Value(),
			Misses:    m.StoreMisses.Value(),
			Evictions: m.StoreEvictions.Value(),
			Releases:  releases,
			Datasets:  datasets,
		},
		Sweeps: SweepStats{
			Requests: m.SweepRequests.Value(),
			Points:   m.SweepPoints.Value(),
		},
		Jobs: JobStats{
			Submitted: m.JobsSubmitted.Value(),
			Deduped:   m.JobsDeduped.Value(),
			Pending:   pendingJobs,
			Running:   m.JobsRunning.Value(),
			Done:      m.JobsDone.Value(),
			Failed:    m.JobsFailed.Value(),
		},
		Persist: PersistStats{
			Writes:       m.PersistWrites.Value(),
			Errors:       m.PersistErrors.Value(),
			ReleaseLoads: m.PersistReleaseLoads.Value(),
			DatasetLoads: m.PersistDatasetLoads.Value(),
		},
		Endpoints: map[string]EndpointStats{},
		Stages:    stages,
		CostModel: cost,
	}
	for _, name := range sortedKeys(m.endpoints) {
		e := m.endpoints[name]
		h := e.hist.Stats()
		if h.Count == 0 {
			continue
		}
		s.Endpoints[name] = EndpointStats{
			Count:        h.Count,
			Errors:       e.errors.Load(),
			P50Milli:     obs.BucketQuantile(h.Buckets, 0.50),
			P99Milli:     obs.BucketQuantile(h.Buckets, 0.99),
			TotalSeconds: h.TotalSeconds,
			Buckets:      h.Buckets,
		}
	}
	return s
}
