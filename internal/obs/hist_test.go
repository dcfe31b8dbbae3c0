package obs

import (
	"math"
	"testing"
	"time"
)

// TestBucketIndexBoundaries pins the log₂-µs bucketing contract: bucket
// 0 is the sub-microsecond bin, bucket k holds [2^(k-1), 2^k) µs, and
// durations beyond the top boundary clamp into the last bucket instead
// of indexing out of range.
func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 1},       // lower edge of [1,2)
		{1999 * time.Nanosecond, 1}, // still <2µs after truncation
		{2 * time.Microsecond, 2},   // exact power of two starts a new bin
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{(1<<10 - 1) * time.Microsecond, 10},
		{(1 << 10) * time.Microsecond, 11},
		{(1 << 24) * time.Microsecond, histBuckets - 1}, // highest in-range bin
		{(1 << 25) * time.Microsecond, histBuckets - 1}, // first overflow clamps
		{time.Hour, histBuckets - 1},
		{24 * time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestHistObserveOverflowCounts checks the top bin absorbs overflow:
// the count and sum still reflect the true observation even though the
// bucket boundary undercounts it.
func TestHistObserveOverflowCounts(t *testing.T) {
	var h Hist
	h.Observe(time.Hour)
	h.Observe(500 * time.Nanosecond)
	if got := h.count.Load(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if got := h.bucket[histBuckets-1].Load(); got != 1 {
		t.Fatalf("top bucket = %d, want 1", got)
	}
	if got := h.bucket[0].Load(); got != 1 {
		t.Fatalf("sub-µs bucket = %d, want 1", got)
	}
	if got := h.sumNS.Load(); got != int64(time.Hour)+500 {
		t.Fatalf("sumNS = %d, want %d", got, int64(time.Hour)+500)
	}
}

// TestBucketQuantile pins the bucket estimator: ceil nearest-rank over
// the bins, reporting the hit bin's geometric midpoint le/√2 in
// milliseconds.
func TestBucketQuantile(t *testing.T) {
	mid := func(le int64) float64 { return float64(le) / math.Sqrt2 / 1000 }
	two := []HistBucket{{LeMicros: 2048, Count: 5}, {LeMicros: 8192, Count: 5}}
	for _, c := range []struct {
		name    string
		buckets []HistBucket
		q       float64
		want    float64
	}{
		{"empty", nil, 0.5, 0},
		{"q=0 clamps to rank 1", two, 0, mid(2048)},
		{"q=1 is the last bin", two, 1, mid(8192)},
		// rank ceil(0.5*10)=5 ends exactly on the first bin's boundary.
		{"rank on a bin boundary", two, 0.5, mid(2048)},
		{"rank just past a boundary", two, 0.51, mid(8192)},
		{"overflow bin", []HistBucket{{LeMicros: 4, Count: 1}, {LeMicros: 1 << (histBuckets - 1), Count: 3}}, 0.99, mid(1 << (histBuckets - 1))},
	} {
		if got := BucketQuantile(c.buckets, c.q); got != c.want {
			t.Errorf("%s: BucketQuantile(q=%g) = %g, want %g", c.name, c.q, got, c.want)
		}
	}
}
