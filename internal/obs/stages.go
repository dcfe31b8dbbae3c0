package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets sizes the log-bucketed duration histograms: bucket k
// holds durations in [2^(k-1), 2^k) microseconds (bucket 0 is the
// sub-microsecond bin), so 26 buckets span 1µs to ~33.5s with the last
// bucket absorbing overflow.
const histBuckets = 26

// Hist is a mutex-free duration histogram: count, total, and
// log-bucketed distribution, all plain atomics so hot paths observe
// with three uncontended adds and /metrics snapshots without stopping
// anyone. A snapshot taken mid-observation may be torn by one sample
// across fields — fine for a metrics surface.
type Hist struct {
	count  atomic.Int64
	sumNS  atomic.Int64
	bucket [histBuckets]atomic.Int64
}

// bucketIndex maps a duration to its log2 microsecond bucket.
func bucketIndex(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	b := bits.Len64(uint64(d / time.Microsecond))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	h.bucket[bucketIndex(d)].Add(1)
}

// HistBucket is one non-empty histogram bin in a snapshot: Count
// samples at or below LeMicros (and above the previous bin's bound);
// the top bin also absorbs anything beyond the histogram's range.
type HistBucket struct {
	LeMicros int64 `json:"le_us"`
	Count    int64 `json:"count"`
}

// StageStats is one histogram's snapshot — a stage's ledger entry, or
// an endpoint's latency. These are the empirical cost coefficients
// admission control will consume: Count observations, TotalSeconds
// spent, and the latency shape in Buckets (non-empty bins only, in
// ascending le order).
type StageStats struct {
	Count        int64        `json:"count"`
	TotalSeconds float64      `json:"total_seconds"`
	Buckets      []HistBucket `json:"buckets,omitempty"`
}

// Stats snapshots the histogram.
func (h *Hist) Stats() StageStats {
	stats := StageStats{
		Count:        h.count.Load(),
		TotalSeconds: float64(h.sumNS.Load()) / float64(time.Second),
	}
	for k := 0; k < histBuckets; k++ {
		if c := h.bucket[k].Load(); c > 0 {
			stats.Buckets = append(stats.Buckets, HistBucket{LeMicros: 1 << k, Count: c})
		}
	}
	return stats
}

// BucketQuantile estimates the q-quantile of a log₂-bucketed histogram
// (ascending le order, as Stats returns it) in milliseconds. The
// estimator is ceil nearest-rank over buckets, reporting the containing
// bucket's geometric midpoint (le/√2): the multiplicative center of a
// [le/2, le) bin, so the estimate's relative error is bounded by the
// bucket ratio (√2) rather than depending on where samples sit in the
// bin. An empty histogram reports 0.
func BucketQuantile(buckets []HistBucket, q float64) float64 {
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range buckets {
		cum += b.Count
		if cum >= rank {
			return float64(b.LeMicros) / math.Sqrt2 / 1000
		}
	}
	return float64(buckets[len(buckets)-1].LeMicros) / math.Sqrt2 / 1000
}

// ShapeSample is one calibration observation: the workload shape a
// stage pass operated on and how long it took. Micros is float64 so the
// fitting math consumes it directly.
type ShapeSample struct {
	Shape  Shape   `json:"shape"`
	Micros float64 `json:"us"`
}

// ReservoirCap bounds each stage's calibration reservoir. The reservoir
// is a ring — the newest ReservoirCap shaped observations — so the
// fitted cost model tracks the current machine and workload rather than
// process-lifetime history (a drifted machine refits within one
// window).
const ReservoirCap = 512

// reservoir is one stage's bounded (shape, duration) window. Stage
// passes are coarse (one observation per pipeline pass, never per
// tuple), so a mutex — not atomics — is the right price here. The
// window (24 KB) is allocated on the first shaped observation, so a
// stage a server never runs costs it no heap.
type reservoir struct {
	mu   sync.Mutex
	buf  []ShapeSample
	next int
	n    int
}

func (r *reservoir) add(s ShapeSample) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]ShapeSample, ReservoirCap)
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % ReservoirCap
	if r.n < ReservoirCap {
		r.n++
	}
	r.mu.Unlock()
}

// samples returns the retained window, oldest first.
func (r *reservoir) samples() []ShapeSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShapeSample, 0, r.n)
	start := r.next - r.n
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[((start+i)%ReservoirCap+ReservoirCap)%ReservoirCap])
	}
	return out
}

// Stages is the aggregate per-stage ledger: one histogram per pipeline
// stage plus a bounded reservoir of shaped observations for the cost
// model, shared by every trace of a server. The zero value is ready;
// a nil *Stages ignores observations.
type Stages struct {
	hists [numStages]Hist
	res   [numStages]reservoir
}

// Observe folds one stage pass into the ledger.
func (g *Stages) Observe(st Stage, d time.Duration) {
	g.ObserveShaped(st, Shape{}, d)
}

// ObserveShaped folds one stage pass into the ledger and — when the
// pass was shape-annotated — into the stage's calibration reservoir.
// Unannotated passes still count in the histogram but never displace
// calibration samples.
func (g *Stages) ObserveShaped(st Stage, sh Shape, d time.Duration) {
	if g == nil || st <= StageNone || st >= numStages {
		return
	}
	g.hists[st].Observe(d)
	if !sh.IsZero() {
		g.res[st].add(ShapeSample{Shape: sh, Micros: float64(d) / float64(time.Microsecond)})
	}
}

// Samples returns a copy of the stage's calibration reservoir, oldest
// first (nil-safe). The order is the insertion order, so consumers that
// iterate it — the cost-model fit — are deterministic given the same
// observation sequence.
func (g *Stages) Samples(st Stage) []ShapeSample {
	if g == nil || st <= StageNone || st >= numStages {
		return nil
	}
	return g.res[st].samples()
}

// Snapshot returns the ledger keyed by stage name, omitting stages
// with no observations. Iteration over the fixed stage array keeps the
// key set deterministic.
func (g *Stages) Snapshot() map[string]StageStats {
	out := map[string]StageStats{}
	if g == nil {
		return out
	}
	for st := StageNone + 1; st < numStages; st++ {
		if stats := g.hists[st].Stats(); stats.Count > 0 {
			out[st.String()] = stats
		}
	}
	return out
}

// StageTiming is one stage's aggregate within a single trace — the
// per-release breakdown GET /v1/releases/{id}?stages=1 reports.
type StageTiming struct {
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Breakdown aggregates a finished span tree by stage, in stage-enum
// order. Nil (untraced) roots return nil.
func Breakdown(root *Span) []StageTiming {
	if root == nil {
		return nil
	}
	var counts [numStages]int64
	var totals [numStages]time.Duration
	var walk func(s *Span)
	walk = func(s *Span) {
		if s.stage > StageNone && s.stage < numStages {
			counts[s.stage]++
			totals[s.stage] += s.dur
		}
		// The tree is finished: no concurrent appends remain, but take
		// the lock anyway so a racy caller fails loudly under -race
		// rather than reading a torn slice header.
		s.mu.Lock()
		children := s.children
		s.mu.Unlock()
		for _, c := range children {
			walk(c)
		}
	}
	walk(root)
	var out []StageTiming
	for st := StageNone + 1; st < numStages; st++ {
		if counts[st] > 0 {
			out = append(out, StageTiming{
				Stage:   st.String(),
				Count:   counts[st],
				Seconds: totals[st].Seconds(),
			})
		}
	}
	return out
}
