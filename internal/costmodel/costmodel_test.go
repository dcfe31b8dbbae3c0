package costmodel

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// feed pushes one shaped observation into a ledger.
func feed(g *obs.Stages, st obs.Stage, sh obs.Shape, us float64) {
	g.ObserveShaped(st, sh, time.Duration(us*float64(time.Microsecond)))
}

// TestFitRecoversExactLine pins the least-squares solution: samples on
// an exact line y = a·w + b must recover (a, b) with R² = 1 and zero
// median error.
func TestFitRecoversExactLine(t *testing.T) {
	g := &obs.Stages{}
	const a, b = 0.25, 40.0
	for _, p := range []int{100, 200, 400, 800} {
		sh := obs.Shape{Profiles: p, Dims: 4}
		w := float64(p) * float64(p) * 4
		feed(g, obs.StagePriors, sh, a*w+b)
	}
	m := New(g)
	snap := m.Snapshot()
	fit, ok := snap["priors"]
	if !ok {
		t.Fatalf("no priors fit in snapshot: %v", snap)
	}
	if fit.Samples != 4 {
		t.Fatalf("samples = %d, want 4", fit.Samples)
	}
	if math.Abs(fit.A-a) > 1e-9*a || math.Abs(fit.B-b) > 1e-6 {
		t.Fatalf("fit (a=%g, b=%g), want (%g, %g)", fit.A, fit.B, a, b)
	}
	if fit.R2 < 1-1e-9 {
		t.Fatalf("R² = %g, want 1", fit.R2)
	}
	if fit.MedAbsRelErr > 1e-9 {
		t.Fatalf("MedAbsRelErr = %g, want ~0", fit.MedAbsRelErr)
	}
	if fit.Formula != "profiles^2*d" {
		t.Fatalf("formula = %q", fit.Formula)
	}

	// Predict at a fresh shape evaluates the same line; a lane count
	// does not scale a prior pass.
	sh := obs.Shape{Profiles: 300, Dims: 4, Lanes: 2}
	want := a*(300.0*300*4) + b
	got, _, ok := m.Predict(obs.StagePriors, sh)
	if !ok {
		t.Fatal("Predict not ok")
	}
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("Predict = %g, want %g", got, want)
	}
}

// TestFitDegenerateWindows pins the fallbacks: a single sample, and a
// window with no spread in the work term, both collapse to the
// intercept-only model (slope zero, B = mean duration).
func TestFitDegenerateWindows(t *testing.T) {
	g := &obs.Stages{}
	feed(g, obs.StageMondrian, obs.Shape{Rows: 1000, Dims: 3}, 500)
	m := New(g)
	fit := m.Snapshot()["mondrian"]
	if fit.A != 0 || fit.B != 500 || fit.Samples != 1 {
		t.Fatalf("single sample: fit = %+v, want intercept-only 500", fit)
	}

	g2 := &obs.Stages{}
	for _, us := range []float64{90, 100, 110} {
		feed(g2, obs.StageMondrian, obs.Shape{Rows: 1000, Dims: 3}, us)
	}
	fit2 := New(g2).Snapshot()["mondrian"]
	if fit2.A != 0 || math.Abs(fit2.B-100) > 1e-9 {
		t.Fatalf("no-spread window: fit = %+v, want intercept-only 100", fit2)
	}
	// Per-sample relative errors of the intercept model on 90/100/110
	// are {1/9, 0, 1/11}; the median of the sorted set is 1/11.
	if math.Abs(fit2.MedAbsRelErr-1.0/11) > 1e-12 {
		t.Fatalf("MedAbsRelErr = %g, want 1/11", fit2.MedAbsRelErr)
	}
}

// TestNegativeSlopeClamped: a window where duration decreases with the
// work term (pure noise) must not produce a model that predicts
// negative cost for big shapes.
func TestNegativeSlopeClamped(t *testing.T) {
	g := &obs.Stages{}
	feed(g, obs.StageInference, obs.Shape{Rows: 100, Lanes: 1}, 1000)
	feed(g, obs.StageInference, obs.Shape{Rows: 10000, Lanes: 1}, 10)
	fit := New(g).Snapshot()["inference"]
	if fit.A != 0 {
		t.Fatalf("slope = %g, want clamped to 0", fit.A)
	}
	got, _, _ := New(g).Predict(obs.StageInference, obs.Shape{Rows: 1 << 30, Lanes: 64})
	if got < 0 {
		t.Fatalf("Predict = %g, want >= 0", got)
	}
}

// TestUnannotatedObservationsStayOut: plain Observe calls must not
// enter the calibration reservoir.
func TestUnannotatedObservationsStayOut(t *testing.T) {
	g := &obs.Stages{}
	g.Observe(obs.StagePriors, time.Millisecond)
	if _, ok := New(g).Snapshot()["priors"]; ok {
		t.Fatal("unannotated observation produced a fit")
	}
}

// TestNilModel: the disabled-tracing form predicts nothing.
func TestNilModel(t *testing.T) {
	var m *Model
	if got := m.Snapshot(); len(got) != 0 {
		t.Fatalf("nil model snapshot = %v", got)
	}
	if _, _, ok := m.Predict(obs.StagePriors, obs.Shape{Profiles: 10}); ok {
		t.Fatal("nil model Predict ok")
	}
	if _, _, ok := New(nil).Predict(obs.StagePriors, obs.Shape{Profiles: 10}); ok {
		t.Fatal("nil-ledger model Predict ok")
	}
}

// TestSnapshotDeterministic: two snapshots of the same window are
// identical — fitting is a pure function of the reservoir.
func TestSnapshotDeterministic(t *testing.T) {
	g := &obs.Stages{}
	for i := 1; i <= 40; i++ {
		feed(g, obs.StagePriors, obs.Shape{Profiles: 50 * i, Dims: 5, Lanes: 1 + i%3},
			float64(i*i)*17.3+11)
		feed(g, obs.StageMondrian, obs.Shape{Rows: 100 * i, Dims: 5}, float64(i)*201.7)
	}
	m := New(g)
	a, b := m.Snapshot(), m.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(a), len(b))
	}
	for k, av := range a {
		if b[k] != av {
			t.Fatalf("stage %s differs across snapshots: %+v vs %+v", k, av, b[k])
		}
	}
}

// TestReservoirWindowSlides: past ReservoirCap observations, the fit
// must track the newest window (a drifted machine recalibrates).
func TestReservoirWindowSlides(t *testing.T) {
	g := &obs.Stages{}
	// Old regime: 1 µs per work unit.
	for i := 0; i < obs.ReservoirCap; i++ {
		feed(g, obs.StagePersistRead, obs.Shape{Rows: 100 + i}, float64(100+i))
	}
	// New regime: the machine got 10× slower.
	for i := 0; i < obs.ReservoirCap; i++ {
		feed(g, obs.StagePersistRead, obs.Shape{Rows: 100 + i}, float64(100+i)*10)
	}
	fit := New(g).Snapshot()["persist_read"]
	if fit.Samples != obs.ReservoirCap {
		t.Fatalf("samples = %d, want %d", fit.Samples, obs.ReservoirCap)
	}
	if math.Abs(fit.A-10) > 0.5 {
		t.Fatalf("slope after drift = %g, want ~10 (old regime must be evicted)", fit.A)
	}
}
