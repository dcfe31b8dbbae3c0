// Benchmarks regenerating each figure/table of the paper's evaluation
// at reduced scale, plus microbenchmarks for the framework's hot paths.
// Each BenchmarkFig* target corresponds to one entry of DESIGN.md's
// per-experiment index; `go test -bench=. -benchmem` exercises all of
// them.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adult"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/mondrian"
	"repro/internal/parallel"
	"repro/internal/prob"
	"repro/internal/service"
	"repro/internal/utility"
)

// benchEngine lazily builds a shared engine over a small Adult table.
func benchEngine(b *testing.B, n int) *core.Engine {
	b.Helper()
	return benchEngineWorkers(b, n, 0)
}

// benchEngineWorkers builds an engine with an explicit pool size
// (0 = all cores, negative = sequential), for Benchmark*Parallel
// variants and their sequential baselines.
func benchEngineWorkers(b *testing.B, n, workers int) *core.Engine {
	b.Helper()
	table := adult.Generate(n, 42)
	e, err := core.New(table, adult.Hierarchies(), nil, nil,
		core.WithWorkers(parallel.Resolve(workers)))
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkFig1aAttack measures one probabilistic background-knowledge
// attack pass (posterior inference + disclosure measurement for every
// record) against an ℓ-diverse release — the inner loop of Figure 1(a).
func BenchmarkFig1aAttack(b *testing.B) {
	e := benchEngine(b, 1000)
	p := core.Table5()[0]
	res, err := e.AnonymizeModel(core.DistinctLDiversity, p)
	if err != nil {
		b.Fatal(err)
	}
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), 0.3)
	if _, err := e.Priors(bvec); err != nil { // warm the prior cache
		b.Fatal(err)
	}
	breach := e.BreachTest(core.DistinctLDiversity, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Attack(res, bvec, p.T, breach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1bAttack is the Figure 1(b) variant: the (B,t) release
// attacked at its enforced bandwidth.
func BenchmarkFig1bAttack(b *testing.B) {
	e := benchEngine(b, 1000)
	p := core.Table5()[0]
	res, err := e.AnonymizeModel(core.BTPrivacy, p)
	if err != nil {
		b.Fatal(err)
	}
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), 0.3)
	breach := e.BreachTest(core.BTPrivacy, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Attack(res, bvec, p.T, breach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2ExactVsOmega measures the Figure 2 comparison: exact
// posterior inference and the Ω-estimate over a random 10-tuple group.
func BenchmarkFig2ExactVsOmega(b *testing.B) {
	e := benchEngine(b, 1000)
	priors, err := e.UniformPriors(0.3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := rng.Perm(e.Table.N())[:10]
	gp := make([]prob.Dist, len(rows))
	svals := make([]int, len(rows))
	for i, ri := range rows {
		gp[i] = priors[ri]
		svals[i] = e.Table.Records[ri].S
	}
	counts := inference.GroupCounts(svals, e.Table.Schema.M())
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inference.ExactPosteriors(gp, counts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("omega", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inference.Omega{}.Posteriors(gp, counts)
		}
	})
}

// BenchmarkFig3aRisk measures one worst-case disclosure risk evaluation
// — the per-point cost of the Figure 3(a) continuity sweep.
func BenchmarkFig3aRisk(b *testing.B) {
	e := benchEngine(b, 1000)
	res, err := e.AnonymizeModel(core.BTPrivacy, core.Table5()[0])
	if err != nil {
		b.Fatal(err)
	}
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), 0.4)
	if _, err := e.Priors(bvec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.WorstCaseRisk(res, bvec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3bRisk measures the two-component bandwidth variant of
// the risk evaluation (Figure 3(b) grid points).
func BenchmarkFig3bRisk(b *testing.B) {
	e := benchEngine(b, 1000)
	d := e.Table.Schema.D()
	bvec := make([]float64, d)
	for i := range bvec {
		if i < d/2 {
			bvec[i] = 0.3
		} else {
			bvec[i] = 0.5
		}
	}
	p := core.Table5()[0]
	p.BVec = bvec
	res, err := e.AnonymizeModel(core.BTPrivacy, p)
	if err != nil {
		b.Fatal(err)
	}
	adv := kernel.UniformBandwidth(d, 0.3)
	if _, err := e.Priors(adv); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.WorstCaseRisk(res, adv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4aAnonymize measures Mondrian anonymization time for each
// privacy model at para1 — Figure 4(a)'s bars.
func BenchmarkFig4aAnonymize(b *testing.B) {
	e := benchEngine(b, 1000)
	p := core.Table5()[0]
	for _, m := range core.AllModels() {
		req, err := e.Requirement(m, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Anonymize(req)
			}
		})
	}
}

// BenchmarkFig4bKernel measures kernel background-knowledge estimation
// — Figure 4(b)'s dominant cost — at three input sizes. The pass runs
// sequentially (workers = 1) so the number isolates the per-pass
// kernel cost; the parallel layer's speedup is measured by the
// BreachTest pair.
func BenchmarkFig4bKernel(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		table := adult.Generate(n, 42)
		est, err := kernel.NewEstimator(table, adult.Hierarchies(), kernel.Epanechnikov{})
		if err != nil {
			b.Fatal(err)
		}
		est.Workers = -1
		bvec := kernel.UniformBandwidth(table.Schema.D(), 0.3)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := est.ProfilePriors(bvec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return strconv.Itoa(n/1000) + "k"
	}
	return "n" + strconv.Itoa(n)
}

// BenchmarkFig5Utility measures the DM and GCP computations over a
// release — Figure 5's metrics.
func BenchmarkFig5Utility(b *testing.B) {
	e := benchEngine(b, 1000)
	res, err := e.AnonymizeModel(core.DistinctLDiversity, core.Table5()[0])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("DM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			utility.Discernibility(res)
		}
	})
	b.Run("GCP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			utility.GCP(res)
		}
	})
}

// BenchmarkFig6Queries measures aggregate COUNT query evaluation — the
// Figure 6 workload — per query.
func BenchmarkFig6Queries(b *testing.B) {
	e := benchEngine(b, 1000)
	res, err := e.AnonymizeModel(core.TCloseness, core.Table5()[0])
	if err != nil {
		b.Fatal(err)
	}
	w := &utility.Workload{QD: 4, Sel: 0.07, Queries: 1, Rng: rand.New(rand.NewSource(2))}
	queries := make([]*utility.Query, 64)
	for i := range queries {
		queries[i] = w.Generate(e.Table.Schema)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		q.TrueCount(e.Table)
		q.EstimateCount(res)
	}
}

// BenchmarkPriorEstimation isolates the Nadaraya–Watson pass per
// bandwidth — the paper's main efficiency concern — sequentially
// (workers = 1), so ns/op is the raw per-pass kernel cost.
func BenchmarkPriorEstimation(b *testing.B) {
	table := adult.Generate(1000, 42)
	est, err := kernel.NewEstimator(table, adult.Hierarchies(), kernel.Epanechnikov{})
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = -1
	for _, bw := range []float64{0.2, 0.5} {
		bvec := kernel.UniformBandwidth(table.Schema.D(), bw)
		b.Run("b="+fmtBW(bw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := est.ProfilePriors(bvec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func fmtBW(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// BenchmarkAttackSweep compares serving an 8-point b' grid through one
// AttackSweep against 8 independent Attack calls. Both run one prior
// pass per bandwidth, so the sweep amortizes only the group decode and
// the single parallel dispatch over every (bandwidth, class) pair. Each
// iteration starts from a cold prior cache (fresh engine, built with
// the timer stopped), which is exactly the position a server is in
// when a client sweeps bandwidths it has not seen; both variants run
// sequentially so the ratio reflects work, not scheduling.
func BenchmarkAttackSweep(b *testing.B) {
	table := adult.Generate(2000, 42)
	setup, err := core.New(table, adult.Hierarchies(), nil, nil, core.WithWorkers(-1))
	if err != nil {
		b.Fatal(err)
	}
	p := core.Table5()[0]
	res, err := setup.AnonymizeModel(core.BTPrivacy, p)
	if err != nil {
		b.Fatal(err)
	}
	grid := make([][]float64, 8)
	for i := range grid {
		grid[i] = kernel.UniformBandwidth(table.Schema.D(), 0.2+0.04*float64(i))
	}
	freshEngine := func(b *testing.B) *core.Engine {
		b.StopTimer()
		e, err := core.New(table, adult.Hierarchies(), nil, nil, core.WithWorkers(-1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		return e
	}
	b.Run("sweep8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := freshEngine(b)
			if _, err := e.AttackSweep(res, grid, p.T, e.BreachTest(core.BTPrivacy, p)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := freshEngine(b)
			breach := e.BreachTest(core.BTPrivacy, p)
			for _, bvec := range grid {
				if _, err := e.Attack(res, bvec, p.T, breach); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSmoothedJS measures the disclosure measure itself.
func BenchmarkSmoothedJS(b *testing.B) {
	h := adult.OccupationHierarchy()
	sch := adult.NewSchema()
	m, err := h.DistanceMatrix(sch.Sensitive.Values)
	if err != nil {
		b.Fatal(err)
	}
	s := distance.NewSmoothedJS(m, kernel.Epanechnikov{}, core.SmoothingBandwidth)
	rng := rand.New(rand.NewSource(3))
	p := make(prob.Dist, 14)
	q := make(prob.Dist, 14)
	for i := range p {
		p[i], q[i] = rng.Float64(), rng.Float64()
	}
	p.Normalize()
	q.Normalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Distance(p, q)
	}
}

// BenchmarkMondrianScaling shows anonymization scaling with table size.
func BenchmarkMondrianScaling(b *testing.B) {
	for _, n := range []int{500, 2000} {
		e := benchEngine(b, n)
		req, err := e.Requirement(core.DistinctLDiversity, core.Table5()[0])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Anonymize(req)
			}
		})
	}
}

// benchBreachPass measures the full breach-test pass — posterior
// inference plus disclosure measurement for every equivalence class of
// a (B,t) release, under the release's own breach criterion — at a
// given pool size. This is the engine hot path the parallel layer
// targets; BenchmarkBreachTest vs BenchmarkBreachTestParallel is the
// speedup the concurrency layer buys on multi-core hardware.
func benchBreachPass(b *testing.B, workers int) {
	e := benchEngineWorkers(b, 2000, workers)
	p := core.Table5()[0]
	res, err := e.AnonymizeModel(core.BTPrivacy, p)
	if err != nil {
		b.Fatal(err)
	}
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), 0.4)
	if _, err := e.Priors(bvec); err != nil { // warm the prior cache
		b.Fatal(err)
	}
	breach := e.BreachTest(core.BTPrivacy, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Attack(res, bvec, p.T, breach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBreachTest is the sequential baseline (workers = 1).
func BenchmarkBreachTest(b *testing.B) { benchBreachPass(b, -1) }

// BenchmarkBreachTestParallel runs the same pass on all cores.
func BenchmarkBreachTestParallel(b *testing.B) { benchBreachPass(b, 0) }

// BenchmarkServeAttack measures the serving path end to end: an
// in-process httptest server with a warm release store handling
// POST /v1/attack — JSON decode, release lookup, a full attack pass on
// the shared pool, JSON encode. This is the per-request cost a client
// of cmd/serve pays at steady state (cmd/loadgen reports the same path
// under concurrency).
func BenchmarkServeAttack(b *testing.B) {
	srv, err := service.New(service.Config{Workers: 0})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(path, body string) []byte {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, out)
		}
		return out
	}
	var ds service.DatasetResponse
	if err := json.Unmarshal(post("/v1/datasets", `{"n":1000,"seed":42}`), &ds); err != nil {
		b.Fatal(err)
	}
	var rel service.AnonymizeResponse
	if err := json.Unmarshal(post("/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"bt"}`, ds.ID)), &rel); err != nil {
		b.Fatal(err)
	}
	attackBody := fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel.Release)
	post("/v1/attack", attackBody) // warm the prior cache for b'=0.4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post("/v1/attack", attackBody)
	}
}

// benchMondrian measures one Mondrian partitioning of a 2K-tuple table
// under (ℓ-diversity ∧ k-anonymity) at a given pool size.
func benchMondrian(b *testing.B, workers int) {
	e := benchEngineWorkers(b, 2000, workers)
	req, err := e.Requirement(core.DistinctLDiversity, core.Table5()[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &mondrian.Partitioner{Table: e.Table, Req: req, Workers: workers}
		p.Anonymize()
	}
}

// BenchmarkMondrian is the sequential partitioning baseline.
func BenchmarkMondrian(b *testing.B) { benchMondrian(b, -1) }

// BenchmarkMondrianParallel partitions subtrees on all cores.
func BenchmarkMondrianParallel(b *testing.B) { benchMondrian(b, 0) }

// BenchmarkPriorsLanes isolates the lane-shaped prior pass at the
// BenchmarkBreachTest shape — n=2000, b'=0.4, sequential — which is the
// prior pass a breach-test attack triggers cold. ns/op here is the
// direct kernel-level measure of the lane restructuring
// (BenchmarkBreachTest itself warms priors before its timer, so the
// kernel cost only shows up in this benchmark).
func BenchmarkPriorsLanes(b *testing.B) {
	table := adult.Generate(2000, 42)
	est, err := kernel.NewEstimator(table, adult.Hierarchies(), kernel.Epanechnikov{})
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = -1
	bvec := kernel.UniformBandwidth(table.Schema.D(), 0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.ProfilePriors(bvec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackAdaptive measures a full attack pass under the
// request-selectable adaptive method — exact posteriors below the
// state bound, Ω above — on warmed priors, mirroring what a
// {"inference": "adaptive"} attack costs the server at steady state
// next to BenchmarkFig1aAttack's Ω default.
func BenchmarkAttackAdaptive(b *testing.B) {
	e := benchEngineWorkers(b, 1000, -1)
	p := core.Table5()[0]
	res, err := e.AnonymizeModel(core.BTPrivacy, p)
	if err != nil {
		b.Fatal(err)
	}
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), 0.4)
	if _, err := e.Priors(bvec); err != nil {
		b.Fatal(err)
	}
	breach := e.BreachTest(core.BTPrivacy, p)
	method := inference.Adaptive{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AttackWith(context.Background(), method, res, bvec, p.T, breach); err != nil {
			b.Fatal(err)
		}
	}
}
