package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adult"
	"repro/internal/kernel"
)

// engineWithWorkers builds an engine over the same table with an
// explicit worker setting, so outputs can be compared across pools.
func engineWithWorkers(t *testing.T, n, workers int) *Engine {
	t.Helper()
	tab := adult.Generate(n, 42)
	e, err := New(tab, adult.Hierarchies(), nil, nil, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// attackFingerprint renders everything an attack run produced —
// release structure plus the full report — so byte-equality of the
// strings certifies bit-identical output.
func attackFingerprint(t *testing.T, e *Engine, m Model, p Params) string {
	t.Helper()
	res, _, err := e.RunAlgorithm("mondrian", m.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), 0.4)
	rep, err := e.AttackWith(context.Background(), nil, res, bvec, p.T, e.BreachTest(m, p))
	if err != nil {
		t.Fatal(err)
	}
	worst, err := e.WorstCaseRiskSweep(context.Background(), nil, res, [][]float64{bvec})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("groups=%v\nrisks=%v\nvulnerable=%d worst=%v wcr=%v",
		res.Render(), rep.Risks, rep.Vulnerable, rep.WorstRisk, worst[0])
}

// TestAttackDeterministicAcrossWorkers is the tentpole's contract: the
// whole anonymize→infer→measure pipeline produces byte-identical
// output at workers=1 and workers=GOMAXPROCS (and an oversubscribed
// pool), for both a baseline model and (B,t)-privacy.
func TestAttackDeterministicAcrossWorkers(t *testing.T) {
	const n = 400
	p := Table5()[0]
	for _, m := range []Model{DistinctLDiversity, BTPrivacy} {
		seq := engineWithWorkers(t, n, 1)
		want := attackFingerprint(t, seq, m, p)
		for _, workers := range []int{runtime.GOMAXPROCS(0), 7} {
			par := engineWithWorkers(t, n, workers)
			if got := attackFingerprint(t, par, m, p); got != want {
				t.Errorf("%s: workers=%d output differs from sequential\nseq: %.200s\npar: %.200s",
					m, workers, want, got)
			}
		}
	}
}

// TestWorkersNonPositiveFallsBackToSequential is the regression test
// for the option contract: WithWorkers(n ≤ 0) must resolve to one
// worker and behave exactly like the sequential path.
func TestWorkersNonPositiveFallsBackToSequential(t *testing.T) {
	for _, w := range []int{0, -1, -16} {
		e := engineWithWorkers(t, 200, w)
		if got := e.Workers(); got != 1 {
			t.Errorf("WithWorkers(%d): Workers() = %d, want 1", w, got)
		}
		if got := e.Estimator.Workers; got != 1 {
			t.Errorf("WithWorkers(%d): estimator workers = %d, want 1", w, got)
		}
	}
	p := Table5()[0]
	want := attackFingerprint(t, engineWithWorkers(t, 200, 1), BTPrivacy, p)
	got := attackFingerprint(t, engineWithWorkers(t, 200, -3), BTPrivacy, p)
	if got != want {
		t.Error("WithWorkers(-3) output differs from workers=1")
	}
}

// TestDefaultEngineUsesAllCores pins the default: an engine built
// without WithWorkers runs on GOMAXPROCS workers.
func TestDefaultEngineUsesAllCores(t *testing.T) {
	tab := adult.Generate(100, 42)
	e, err := New(tab, adult.Hierarchies(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default Workers() = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestPriorsSingleflight checks the prior cache returns the identical
// slice for repeated and concurrent requests of one bandwidth.
func TestPriorsSingleflight(t *testing.T) {
	e := engineWithWorkers(t, 200, 4)
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), 0.3)
	first, err := e.Priors(bvec)
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]int, 8)
	done := make(chan struct{})
	for i := range results {
		go func(i int) {
			p, err := e.Priors(bvec)
			if err == nil && len(p) > 0 && &p[0] == &first[0] {
				results[i] = []int{1}
			}
			done <- struct{}{}
		}(i)
	}
	for range results {
		<-done
	}
	for i, r := range results {
		if len(r) == 0 {
			t.Fatalf("concurrent Priors call %d did not return the cached slice", i)
		}
	}
}
