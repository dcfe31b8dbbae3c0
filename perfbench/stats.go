package main

import (
	"crypto/sha256"
	"math"
	"sort"
	"time"

	"repro/internal/parallel"
)

// quantile returns the ceil nearest-rank q-quantile of xs: the
// smallest sample with at least a q fraction of the samples at or
// below it (the estimator the service's own latency windows use). It
// sorts a copy, so callers keep their order; an empty input is 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a ratio without a base reads 0, and
// the base is reported beside it).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// calibrate times a fixed workload that does not touch the
// repository's code — hashing and a dependent random walk over a
// buffer, on every client connection's worth of goroutines — and
// returns the median of reps timings in ms. Shared hosts change speed
// over minutes; the calibration time of a run shows how fast the host
// was while it ran, so runs from different moments can be told apart.
func calibrate(reps int) float64 {
	const size = 1 << 22
	bufs := make([][]byte, maxConns)
	for i := range bufs {
		bufs[i] = make([]byte, size)
		for j := range bufs[i] {
			bufs[i][j] = byte(j*7 + i)
		}
	}
	var out []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		parallel.For(maxConns, maxConns, func(w int) {
			b := bufs[w]
			sum := sha256.Sum256(b)
			idx := int(sum[0])
			for k := 0; k < 1<<20; k++ {
				idx = (idx*1103515245 + int(b[idx%size]) + 12345) & (size - 1)
			}
			b[0] = byte(idx)
		})
		out = append(out, ms(time.Since(start)))
	}
	return median(out)
}

// op is one timed operation (a read or a flow) of a window.
type op struct {
	start time.Time
	lat   time.Duration
}

// sliceLen is the target length of the slices a window is cut into for
// its throughput and tail: a shared host's noise comes in bursts of a
// few seconds, and the median over slices leaves a burst in one or two
// slices out, where a whole-window figure would take it in.
const sliceLen = 2 * time.Second

// slicing cuts the window [start, start+d) into equal slices of about
// sliceLen each, at least one.
type slicing struct {
	start time.Time
	n     int
	len   time.Duration
}

func sliceWindow(start time.Time, d time.Duration) slicing {
	n := int(d / sliceLen)
	if n < 1 {
		n = 1
	}
	return slicing{start: start, n: n, len: d / time.Duration(n)}
}

// index returns the slice t falls in, clamped to the window.
func (s slicing) index(t time.Time) int {
	k := int(t.Sub(s.start) / s.len)
	if k < 0 {
		return 0
	}
	if k >= s.n {
		return s.n - 1
	}
	return k
}

// rate returns the median over slices of the operations completed per
// second in each slice. An operation counts into every slice it
// overlaps by the share of its duration spent there, so a slice's rate
// is not rounded to whole operations and the slices add up to the
// operations completed in the window.
func (s slicing) rate(ops []op) float64 {
	work := make([]float64, s.n)
	end := s.start.Add(time.Duration(s.n) * s.len)
	for _, o := range ops {
		if o.lat <= 0 {
			work[s.index(o.start)]++
			continue
		}
		oEnd := o.start.Add(o.lat)
		for k := s.index(o.start); k <= s.index(oEnd); k++ {
			lo, hi := s.start.Add(time.Duration(k)*s.len), s.start.Add(time.Duration(k+1)*s.len)
			if o.start.After(lo) {
				lo = o.start
			}
			if oEnd.Before(hi) {
				hi = oEnd
			}
			if hi.After(end) {
				hi = end
			}
			if hi.After(lo) {
				work[k] += float64(hi.Sub(lo)) / float64(o.lat)
			}
		}
	}
	rates := make([]float64, s.n)
	for k, w := range work {
		rates[k] = w / s.len.Seconds()
	}
	return median(rates)
}

// quantile returns the median over slices of the q-quantile latency,
// in ms, of the operations started in each slice; slices without an
// operation are left out.
func (s slicing) quantile(ops []op, q float64) float64 {
	lats := make([][]float64, s.n)
	for _, o := range ops {
		k := s.index(o.start)
		lats[k] = append(lats[k], ms(o.lat))
	}
	var qs []float64
	for _, l := range lats {
		if len(l) > 0 {
			qs = append(qs, quantile(l, q))
		}
	}
	return median(qs)
}
