package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// sweepFixture ingests a dataset and builds one release to sweep.
func sweepFixture(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	code, body := post(t, ts, "/v1/datasets", `{"n":400,"seed":5}`)
	if code != http.StatusOK {
		t.Fatalf("datasets: %d %s", code, body)
	}
	ds := mustJSON[DatasetResponse](t, body)
	code, body = post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"bt"}`, ds.ID))
	if code != http.StatusOK {
		t.Fatalf("anonymize: %d %s", code, body)
	}
	return mustJSON[AnonymizeResponse](t, body).Release
}

// TestAttackSweepMatchesSingleCalls pins the bprimes form to N
// independent single-bprime calls: every per-bandwidth element of the
// sweep response must equal the standalone response, field for field,
// and arrive in request order.
func TestAttackSweepMatchesSingleCalls(t *testing.T) {
	_, ts := newTestServer(t, 2)
	rel := sweepFixture(t, ts)
	grid := []float64{0.4, 0.2, 0.3, 0.5}

	code, body := post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprimes":[0.4,0.2,0.3,0.5]}`, rel))
	if code != http.StatusOK {
		t.Fatalf("sweep attack: %d %s", code, body)
	}
	sweep := mustJSON[AttackSweepResponse](t, body)
	if sweep.Release != rel || len(sweep.Sweep) != len(grid) {
		t.Fatalf("sweep response %s has %d entries, want %d for %s", sweep.Release, len(sweep.Sweep), len(grid), rel)
	}
	for i, bp := range grid {
		code, body := post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":%g}`, rel, bp))
		if code != http.StatusOK {
			t.Fatalf("single attack b'=%g: %d %s", bp, code, body)
		}
		single := mustJSON[AttackResponse](t, body)
		if !reflect.DeepEqual(sweep.Sweep[i], single) {
			t.Errorf("b'=%g: sweep element %+v != single response %+v", bp, sweep.Sweep[i], single)
		}
	}
}

// TestRiskSweepMatchesSingleCalls is the /v1/risk form of the same
// pinning, including duplicate grid points (served from one normalized
// computation but reported per request entry).
func TestRiskSweepMatchesSingleCalls(t *testing.T) {
	_, ts := newTestServer(t, 2)
	rel := sweepFixture(t, ts)
	grid := []float64{0.3, 0.45, 0.3}

	code, body := post(t, ts, "/v1/risk", fmt.Sprintf(`{"release":%q,"bprimes":[0.3,0.45,0.3]}`, rel))
	if code != http.StatusOK {
		t.Fatalf("sweep risk: %d %s", code, body)
	}
	sweep := mustJSON[RiskSweepResponse](t, body)
	if len(sweep.Sweep) != len(grid) {
		t.Fatalf("sweep has %d entries, want %d", len(sweep.Sweep), len(grid))
	}
	for i, bp := range grid {
		code, body := post(t, ts, "/v1/risk", fmt.Sprintf(`{"release":%q,"bprime":%g}`, rel, bp))
		if code != http.StatusOK {
			t.Fatalf("single risk b'=%g: %d %s", bp, code, body)
		}
		single := mustJSON[RiskResponse](t, body)
		if !reflect.DeepEqual(sweep.Sweep[i], single) {
			t.Errorf("b'=%g: sweep element %+v != single response %+v", bp, sweep.Sweep[i], single)
		}
	}
}

// TestSweepValidation covers the request-form edges: mixing the two
// forms, an empty grid, an out-of-range point, and an oversized grid.
func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, 1)
	rel := sweepFixture(t, ts)
	cases := []struct {
		name, body string
		want       int
	}{
		{"both forms", fmt.Sprintf(`{"release":%q,"bprime":0.3,"bprimes":[0.3]}`, rel), http.StatusBadRequest},
		{"empty grid", fmt.Sprintf(`{"release":%q,"bprimes":[]}`, rel), http.StatusBadRequest},
		{"zero point", fmt.Sprintf(`{"release":%q,"bprimes":[0.3,0]}`, rel), http.StatusBadRequest},
		{"oversized", fmt.Sprintf(`{"release":%q,"bprimes":[%s]}`, rel, bigGrid(MaxSweepPoints+1)), http.StatusBadRequest},
		{"unknown release", `{"release":"rel_nope","bprimes":[0.3]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/attack", "/v1/risk"} {
			code, body := post(t, ts, path, tc.body)
			if code != tc.want {
				t.Errorf("%s %s: status %d (want %d): %s", path, tc.name, code, tc.want, body)
			}
		}
	}
}

// bigGrid renders n comma-separated in-range bandwidths.
func bigGrid(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%g", 0.1+0.8*float64(i)/float64(n))
	}
	return out
}

// TestSweepMetrics checks the amortization ledger: one sweep request
// with four points must count (1 request, 4 points). Single-bprime
// attack and risk requests run as one-point sweeps but are not the
// bprimes form, so they leave the ledger alone.
func TestSweepMetrics(t *testing.T) {
	_, ts := newTestServer(t, 1)
	rel := sweepFixture(t, ts)
	for _, req := range []struct{ path, body string }{
		{"/v1/attack", fmt.Sprintf(`{"release":%q,"bprimes":[0.2,0.3,0.4,0.5]}`, rel)},
		{"/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":0.3}`, rel)},
		{"/v1/risk", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel)},
	} {
		if code, body := post(t, ts, req.path, req.body); code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", req.path, req.body, code, body)
		}
	}
	_, body := get(t, ts, "/metrics")
	snap := mustJSON[Snapshot](t, body)
	if snap.Sweeps.Requests != 1 || snap.Sweeps.Points != 4 {
		t.Errorf("sweep ledger = %+v, want 1 request / 4 points", snap.Sweeps)
	}
}

// TestSkylineAttackJudgedByItsLadder: a skyline release is judged at
// each b' by the ladder entry the requirement's rule picks there, so
// an attack at the ladder points {0.2, B, 0.5} finds no vulnerable
// tuple — the guarantee the release was built to meet.
func TestSkylineAttackJudgedByItsLadder(t *testing.T) {
	_, ts := newTestServer(t, 2)
	ds := createDataset(t, ts, 800, 42)
	code, body := post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"skyline"}`, ds))
	if code != http.StatusOK {
		t.Fatalf("anonymize: %d %s", code, body)
	}
	rel := mustJSON[AnonymizeResponse](t, body).Release
	code, body = post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprimes":[0.2,0.3,0.5]}`, rel))
	if code != http.StatusOK {
		t.Fatalf("attack: %d %s", code, body)
	}
	for _, r := range mustJSON[AttackSweepResponse](t, body).Sweep {
		if r.Vulnerable != 0 {
			t.Errorf("b'=%g: %d vulnerable tuples (worst risk %.4f), want 0", r.BPrime, r.Vulnerable, r.WorstRisk)
		}
	}
}
