package service

import (
	"testing"
	"time"
)

// TestEndpointSnapshot pins the per-endpoint latency section of the
// snapshot: the histogram's count is the request count, responses with
// status >= 400 tick the error tally, the bucket-estimated p50 lands
// inside the [le/2, le) bin the observations fell in, and a registered
// endpoint that saw no traffic is omitted.
func TestEndpointSnapshot(t *testing.T) {
	m := newMetrics()
	attack := m.endpoint("POST /v1/attack")
	m.endpoint("GET /healthz")
	for _, status := range []int{200, 200, 404, 200, 500} {
		attack.observe(3*time.Millisecond, status)
	}

	s := m.snapshot(0, 0, 0, nil, nil)
	if len(s.Endpoints) != 1 {
		t.Fatalf("endpoints = %v, want only the one with traffic", s.Endpoints)
	}
	got, ok := s.Endpoints["POST /v1/attack"]
	if !ok {
		t.Fatalf("snapshot lacks POST /v1/attack: %v", s.Endpoints)
	}
	if got.Count != 5 || got.Errors != 2 {
		t.Errorf("count/errors = %d/%d, want 5/2", got.Count, got.Errors)
	}
	// 3ms = 3000µs falls in the bin le=4096µs, holding [2048, 4096)µs.
	if len(got.Buckets) != 1 || got.Buckets[0].LeMicros != 4096 || got.Buckets[0].Count != 5 {
		t.Fatalf("buckets = %+v, want one bin le=4096µs holding 5", got.Buckets)
	}
	for name, q := range map[string]float64{"p50": got.P50Milli, "p99": got.P99Milli} {
		if q < 2.048 || q >= 4.096 {
			t.Errorf("%s = %g ms, want inside the observed bin [2.048, 4.096)", name, q)
		}
	}
	if want := 5 * 0.003; got.TotalSeconds < want-1e-12 || got.TotalSeconds > want+1e-12 {
		t.Errorf("total_seconds = %g, want %g", got.TotalSeconds, want)
	}
}
