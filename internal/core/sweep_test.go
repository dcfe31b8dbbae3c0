package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/adult"
	"repro/internal/dataset"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/privacy"
	"repro/internal/prob"
)

// sweepGrid is the bandwidth grid the sweep tests exercise — mixed
// order on purpose, so nothing relies on the grid being sorted.
func sweepGrid(d int) [][]float64 {
	grid := [][]float64{}
	for _, b := range []float64{0.3, 0.2, 0.45, 0.25} {
		grid = append(grid, kernel.UniformBandwidth(d, b))
	}
	return grid
}

// TestAttackSweepMatchesIndependentAttacks pins the amortized sweep to
// N independent AttackWith calls, bitwise: shared prior passes, hoisted
// breach construction, and the fused dispatch must not change a single
// float.
func TestAttackSweepMatchesIndependentAttacks(t *testing.T) {
	table := adult.Generate(400, 5)
	p := Table5()[0]
	grid := sweepGrid(table.Schema.D())

	// Independent attacks on their own engine, so the sweep engine's
	// prior cache cannot leak into the reference.
	ref, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ref.RunAlgorithm("mondrian", BTPrivacy.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	breach := ref.BreachTest(BTPrivacy, p)
	want := make([]*AttackReport, len(grid))
	for i, bvec := range grid {
		if want[i], err = ref.AttackWith(context.Background(), nil, res, bvec, p.T, breach); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{-1, 2, 0} {
		e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(parallel.Resolve(workers)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.AttackSweepWith(context.Background(), nil, res, grid, p.T, e.BreachTest(BTPrivacy, p))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(grid) {
			t.Fatalf("workers=%d: %d reports for %d bandwidths", workers, len(got), len(grid))
		}
		for i := range grid {
			if got[i].Vulnerable != want[i].Vulnerable || got[i].WorstRisk != want[i].WorstRisk {
				t.Fatalf("workers=%d bandwidth %d: sweep summary (%d, %v) != independent (%d, %v)",
					workers, i, got[i].Vulnerable, got[i].WorstRisk, want[i].Vulnerable, want[i].WorstRisk)
			}
			if !reflect.DeepEqual(got[i].Risks, want[i].Risks) {
				t.Fatalf("workers=%d bandwidth %d: sweep risks differ from independent attack", workers, i)
			}
		}
	}
}

// TestAttackSweepWarmCache checks a sweep over bandwidths the engine
// has already cached (plus fresh ones) still matches — the cache-hit
// and freshly computed bandwidths must agree.
func TestAttackSweepWarmCache(t *testing.T) {
	table := adult.Generate(300, 9)
	p := Table5()[0]
	e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.RunAlgorithm("mondrian", DistinctLDiversity.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	grid := sweepGrid(table.Schema.D())
	// Warm two of the four bandwidths through the single-path cache.
	if _, err := e.Priors(grid[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Priors(grid[3]); err != nil {
		t.Fatal(err)
	}
	breach := e.BreachTest(DistinctLDiversity, p)
	got, err := e.AttackSweepWith(context.Background(), nil, res, grid, p.T, breach)
	if err != nil {
		t.Fatal(err)
	}
	for i, bvec := range grid {
		want, err := e.AttackWith(context.Background(), nil, res, bvec, p.T, breach)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Risks, want.Risks) || got[i].Vulnerable != want.Vulnerable {
			t.Fatalf("bandwidth %d: warm-cache sweep differs from single attack", i)
		}
	}
}

// TestWorstCaseRiskSweep pins the sweep form of Figure 3's quantity to
// the worst risk of per-bandwidth attacks.
func TestWorstCaseRiskSweep(t *testing.T) {
	table := adult.Generate(300, 9)
	e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.RunAlgorithm("mondrian", BTPrivacy.Key(), Table5()[0])
	if err != nil {
		t.Fatal(err)
	}
	grid := sweepGrid(table.Schema.D())
	got, err := e.WorstCaseRiskSweep(context.Background(), nil, res, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, bvec := range grid {
		want, err := e.AttackWith(context.Background(), nil, res, bvec, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want.WorstRisk {
			t.Fatalf("bandwidth %d: sweep risk %v != single %v", i, got[i], want.WorstRisk)
		}
	}
}

// TestWorstCaseRiskSweepMatchesAttack is the risk identity of the
// bound-first risk pass: on (B,t), skyline and distinct-ℓ releases at
// n=2000, under Ω, exact and adaptive inference and at workers 1, 2
// and 4, WorstCaseRiskSweep equals the attack sweep's WorstRisk bit for
// bit, or fails with the attack's error. The pairs it measures exactly
// are the same number at every worker count and, under Ω on the
// golden (B,t) release, fewer than the distinct pairs an attack
// measures.
func TestWorstCaseRiskSweepMatchesAttack(t *testing.T) {
	table := adult.Generate(2000, 42)
	grid := [][]float64{}
	for _, bp := range []float64{0.05, 0.2, 0.3, 0.5} {
		grid = append(grid, kernel.UniformBandwidth(table.Schema.D(), bp))
	}
	methods := []inference.Method{inference.Omega{}, inference.Exact{}, inference.Adaptive{MaxStates: 4096}}
	exactAt := map[string]int{}
	for _, workers := range []int{1, 2, 4} {
		e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []Model{BTPrivacy, Skyline, DistinctLDiversity} {
			res, _, err := e.RunAlgorithm("mondrian", model.Key(), Table5()[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range methods {
				key := model.Key() + " " + m.Name()
				want, wantErr := e.AttackSweepWith(context.Background(), m, res, grid, 1, nil)
				got, exact, err := e.riskSweep(nil, m, res, grid)
				if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("workers=%d %s: risk error %v, attack error %v", workers, key, err, wantErr)
				}
				if err != nil {
					continue
				}
				for i := range grid {
					if math.Float64bits(got[i]) != math.Float64bits(want[i].WorstRisk) {
						t.Fatalf("workers=%d %s bandwidth %d: risk %v != attack worst %v", workers, key, i, got[i], want[i].WorstRisk)
					}
				}
				if n, ok := exactAt[key]; ok && n != exact {
					t.Errorf("workers=%d %s: %d exact measurements, %d at one worker", workers, key, exact, n)
				}
				exactAt[key] = exact
			}
		}
	}
	pairs := distinctPairs(t, table, "bt", grid)
	if got := exactAt["bt omega"]; got >= pairs || got == 0 {
		t.Errorf("golden (B,t) release under Ω: %d exact measurements for %d distinct pairs", got, pairs)
	}
	t.Logf("exact measurements per release and method: %v; %d distinct pairs on the golden (B,t) release", exactAt, pairs)
}

// TestWorstCaseRiskSweepMatchesAttackGaussian is the risk identity on an
// engine with the Gaussian ablation kernel, whose smoothing weights
// fill every column, so the tilted bound is loosest there: on (B,t) and
// distinct-ℓ releases at n=2000, under Ω, exact and adaptive inference
// and at workers 1, 2 and 4, WorstCaseRiskSweep equals the attack
// sweep's WorstRisk bit for bit, or fails with the attack's error, and
// takes the same number of exact gains at every worker count.
func TestWorstCaseRiskSweepMatchesAttackGaussian(t *testing.T) {
	table := adult.Generate(2000, 42)
	grid := [][]float64{}
	for _, bp := range []float64{0.05, 0.2, 0.3, 0.5} {
		grid = append(grid, kernel.UniformBandwidth(table.Schema.D(), bp))
	}
	methods := []inference.Method{inference.Omega{}, inference.Exact{}, inference.Adaptive{MaxStates: 4096}}
	exactAt := map[string]int{}
	for _, workers := range []int{1, 2, 4} {
		e, err := New(table, adult.Hierarchies(), kernel.Gaussian{}, nil, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []Model{BTPrivacy, DistinctLDiversity} {
			res, _, err := e.RunAlgorithm("mondrian", model.Key(), Table5()[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range methods {
				key := model.Key() + " " + m.Name()
				want, wantErr := e.AttackSweepWith(context.Background(), m, res, grid, 1, nil)
				got, exact, err := e.riskSweep(nil, m, res, grid)
				if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("workers=%d %s: risk error %v, attack error %v", workers, key, err, wantErr)
				}
				if err != nil {
					continue
				}
				for i := range grid {
					if math.Float64bits(got[i]) != math.Float64bits(want[i].WorstRisk) {
						t.Fatalf("workers=%d %s bandwidth %d: risk %v != attack worst %v", workers, key, i, got[i], want[i].WorstRisk)
					}
				}
				if n, ok := exactAt[key]; ok && n != exact {
					t.Errorf("workers=%d %s: %d exact measurements, %d at one worker", workers, key, exact, n)
				}
				exactAt[key] = exact
			}
		}
	}
	t.Logf("exact measurements per release and method: %v", exactAt)
}

// distinctPairs counts the distinct (prior, posterior) pairs an Ω
// attack measures on model's para1 release over the grid.
func distinctPairs(t *testing.T, table *dataset.Table, model string, grid [][]float64) int {
	t.Helper()
	e, err := New(table, adult.Hierarchies(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.RunAlgorithm("mondrian", model, Table5()[0])
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, bvec := range grid {
		priors, err := e.Priors(bvec)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			gp := make([]prob.Dist, g.Size())
			for i, ri := range g.Rows {
				gp[i] = priors[ri]
			}
			gains, same := make([]float64, g.Size()), make([]int, g.Size())
			if _, err := privacy.ClassGains(inference.Omega{}, e.Measure, gp, e.Table.SensitiveCounts(g.Rows), gains, same, math.Inf(1)); err != nil {
				t.Fatal(err)
			}
			for i := range same {
				if same[i] == i {
					pairs++
				}
			}
		}
	}
	return pairs
}
