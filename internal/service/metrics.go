package service

import (
	"expvar"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/obs"
)

// latWindow is the per-endpoint latency sample window. Quantiles are
// computed over the most recent latWindow observations — a bounded
// sliding window, so a long-running server's p50/p99 track current
// load rather than its whole history.
const latWindow = 1024

// latencyRing holds the last latWindow durations for one endpoint,
// plus the endpoint's lifetime request and error counts.
type latencyRing struct {
	samples [latWindow]time.Duration
	next    int
	filled  bool
	count   int64
	errors  int64
}

func (r *latencyRing) observe(d time.Duration) {
	r.samples[r.next] = d
	r.next++
	if r.next == latWindow {
		r.next = 0
		r.filled = true
	}
	r.count++
}

// quantiles returns the requested quantiles (each in [0,1]) over the
// current window, in milliseconds. The estimator is ceil nearest-rank:
// the q-quantile is the smallest sample with at least a q fraction of
// the window at or below it. (The truncating form int(q*(n-1)) it
// replaces reported ~p98.9 as "p99" over a full window and biased
// every quantile low on small ones.)
func (r *latencyRing) quantiles(qs ...float64) []float64 {
	n := r.next
	if r.filled {
		n = latWindow
	}
	out := make([]float64, len(qs))
	if n == 0 {
		return out
	}
	buf := make([]time.Duration, n)
	copy(buf, r.samples[:n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	for i, q := range qs {
		idx := int(math.Ceil(q*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		out[i] = float64(buf[idx]) / float64(time.Millisecond)
	}
	return out
}

// Metrics is the server's instrumentation: expvar counters for request
// and cache accounting plus per-endpoint latency windows. The counters
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

	mu  sync.Mutex
	lat map[string]*latencyRing
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now(), lat: map[string]*latencyRing{}}
}

// observe records one completed request for the named endpoint,
// counting responses with status >= 400 into the endpoint's error
// tally (the global Errors counter aggregates across endpoints).
func (m *Metrics) observe(endpoint string, d time.Duration, status int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.lat[endpoint]
	if !ok {
		r = &latencyRing{}
		m.lat[endpoint] = r
	}
	r.observe(d)
	if status >= 400 {
		r.errors++
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

// EndpointStats is one endpoint's latency summary in a snapshot.
type EndpointStats struct {
	Count    int64   `json:"count"`
	Errors   int64   `json:"errors"`
	P50Milli float64 `json:"p50_ms"`
	P99Milli float64 `json:"p99_ms"`
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
	m.mu.Lock()
	defer m.mu.Unlock()
	// Quantile computation sorts a scratch copy in place; walk the
	// endpoints in sorted order so any future observable side effect
	// of it stays independent of map iteration order.
	names := make([]string, 0, len(m.lat))
	for name := range m.lat {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := m.lat[name]
		qs := r.quantiles(0.50, 0.99)
		s.Endpoints[name] = EndpointStats{Count: r.count, Errors: r.errors, P50Milli: qs[0], P99Milli: qs[1]}
	}
	return s
}
