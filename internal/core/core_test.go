package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adult"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/privacy"
	"repro/internal/prob"
)

// testEngine builds an engine over a small synthetic Adult table.
func testEngine(t *testing.T, n int) *Engine {
	t.Helper()
	tab := adult.Generate(n, 42)
	e, err := New(tab, adult.Hierarchies(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// groupRisks is the exact per-record knowledge gain of a (B,t)
// requirement's candidate group, every gain measured: the oracle its
// bound-first Satisfied and the risk sweep are checked against.
func groupRisks(t *testing.T, bt privacy.BTPrivacy, rows []int) []float64 {
	t.Helper()
	priors := make([]prob.Dist, len(rows))
	for i, ri := range rows {
		priors[i] = bt.Priors[ri]
	}
	gains := make([]float64, len(rows))
	if _, err := privacy.ClassGains(bt.Method, bt.Measure, priors, bt.Table.SensitiveCounts(rows), gains, make([]int, len(rows)), math.Inf(-1)); err != nil {
		t.Fatal(err)
	}
	return gains
}

func TestEngineDefaults(t *testing.T) {
	e := testEngine(t, 200)
	if e.Kernel.Name() != "epanechnikov" {
		t.Errorf("default kernel = %s", e.Kernel.Name())
	}
	if e.Method.Name() != "omega" {
		t.Errorf("default method = %s", e.Method.Name())
	}
	if !strings.HasPrefix(e.Measure.Name(), "smoothedJS") {
		t.Errorf("default measure = %s", e.Measure.Name())
	}
}

func TestPriorsCached(t *testing.T) {
	e := testEngine(t, 300)
	b := kernel.UniformBandwidth(e.Table.Schema.D(), 0.3)
	p1, err := e.Priors(b)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Priors(b)
	if err != nil {
		t.Fatal(err)
	}
	// Cache must return the identical slice, not a recomputation.
	if &p1[0] != &p2[0] {
		t.Error("priors were recomputed instead of cached")
	}
	for _, p := range p1 {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPriorCacheBounded attacks with more distinct bandwidths than the
// prior cache holds: the cache never grows past its cap, and every
// report — evicted bandwidths recomputed included — is bit-identical to
// a fresh engine's.
func TestPriorCacheBounded(t *testing.T) {
	e := testEngine(t, 200)
	p := Table5()[0]
	res, _, err := e.RunAlgorithm("mondrian", DistinctLDiversity.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	breach := e.BreachTest(DistinctLDiversity, p)
	grid := make([][]float64, priorCacheCap+8)
	for i := range grid {
		grid[i] = kernel.UniformBandwidth(e.Table.Schema.D(), 0.1+0.005*float64(i))
	}
	// The first bandwidth again at the end: evicted by then, so it
	// recomputes.
	grid = append(grid, grid[0])
	got := make([]*AttackReport, len(grid))
	for i, b := range grid {
		if got[i], err = e.AttackWith(context.Background(), nil, res, b, p.T, breach); err != nil {
			t.Fatal(err)
		}
		if n := e.priors.Len(); n > priorCacheCap {
			t.Fatalf("after %d bandwidths the prior cache holds %d entries (cap %d)", i+1, n, priorCacheCap)
		}
	}
	if _, ok := e.priors.Get(kernel.BandwidthKey(grid[1])); ok {
		t.Fatal("the second bandwidth should have been evicted")
	}

	fresh := testEngine(t, 200)
	for i, b := range grid {
		want, err := fresh.AttackWith(context.Background(), nil, res, b, p.T, breach)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Vulnerable != want.Vulnerable || got[i].WorstRisk != want.WorstRisk ||
			!reflect.DeepEqual(got[i].Risks, want.Risks) {
			t.Fatalf("bandwidth %d: report differs from a fresh engine's", i)
		}
	}
}

func TestAllModelsAnonymizeAndValidate(t *testing.T) {
	e := testEngine(t, 400)
	p := Table5()[0]
	for _, m := range AllModels() {
		res, _, err := e.RunAlgorithm("mondrian", m.Key(), p)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("%s: invalid partition: %v", m, err)
		}
		// k-anonymity composed in: every group has >= K records.
		for _, g := range res.Groups {
			if g.Size() < p.K {
				t.Fatalf("%s: group of %d < k=%d", m, g.Size(), p.K)
			}
		}
	}
}

func TestBTReleaseHasNoVulnerableTuplesAtEnforcedB(t *testing.T) {
	// The defining guarantee: a (B,t)-private release attacked by the
	// adversary Adv(B) it was built against has zero vulnerable tuples
	// and worst-case risk ≤ t.
	e := testEngine(t, 500)
	p := Table5()[0]
	res, _, err := e.RunAlgorithm("mondrian", BTPrivacy.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), p.B)
	rep, err := e.AttackWith(context.Background(), nil, res, bvec, p.T, e.BreachTest(BTPrivacy, p))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vulnerable != 0 {
		t.Errorf("vulnerable = %d, want 0", rep.Vulnerable)
	}
	if rep.WorstRisk > p.T+1e-9 {
		t.Errorf("worst risk %g > t=%g", rep.WorstRisk, p.T)
	}
}

func TestAttackRisksMatchRequirementGains(t *testing.T) {
	// A (B,t) check and an attack by Adv(B) evaluate each class through
	// the same ClassGains call, so the gains the requirement enforced
	// are, bit for bit, the risks the attack reports.
	p := Table5()[0]
	for _, method := range []inference.Method{inference.Omega{}, inference.Adaptive{}} {
		t.Run(method.Name(), func(t *testing.T) {
			e, err := New(adult.Generate(160, 42), adult.Hierarchies(), nil, method)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := e.RunAlgorithm("mondrian", BTPrivacy.Key(), p)
			if err != nil {
				t.Fatal(err)
			}
			bt, err := e.btRequirementSpan(nil, nil, p)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.AttackWith(context.Background(), nil, res, kernel.UniformBandwidth(e.Table.Schema.D(), p.B), p.T, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Vulnerable != 0 {
				t.Errorf("vulnerable = %d, want 0", rep.Vulnerable)
			}
			for gi, g := range res.Groups {
				for i, gain := range groupRisks(t, bt, g.Rows) {
					if got := rep.Risks[g.Rows[i]]; math.Float64bits(got) != math.Float64bits(gain) {
						t.Fatalf("group %d row %d: attack risk %v != requirement gain %v", gi, g.Rows[i], got, gain)
					}
				}
			}
		})
	}
}

func TestBTProtectsBetterThanLDiversity(t *testing.T) {
	// The paper's headline comparison at the enforced bandwidth.
	e := testEngine(t, 600)
	p := Table5()[0]
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), p.B)

	ldiv, _, err := e.RunAlgorithm("mondrian", DistinctLDiversity.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	ldivRep, err := e.AttackWith(context.Background(), nil, ldiv, bvec, p.T, e.BreachTest(DistinctLDiversity, p))
	if err != nil {
		t.Fatal(err)
	}
	bt, _, err := e.RunAlgorithm("mondrian", BTPrivacy.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	btRep, err := e.AttackWith(context.Background(), nil, bt, bvec, p.T, e.BreachTest(BTPrivacy, p))
	if err != nil {
		t.Fatal(err)
	}
	if btRep.Vulnerable >= ldivRep.Vulnerable {
		t.Errorf("(B,t) vulnerable %d >= l-diversity %d", btRep.Vulnerable, ldivRep.Vulnerable)
	}
}

func TestSkylineRequirement(t *testing.T) {
	e := testEngine(t, 400)
	entries := []Params{
		{T: 0.25, B: 0.3},
		{T: 0.35, B: 0.5},
	}
	req, err := e.SkylineRequirement(3, entries)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Anonymize(req)
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both adversaries must be held to their respective thresholds.
	for i, entry := range entries {
		bvec := kernel.UniformBandwidth(e.Table.Schema.D(), entry.B)
		risks, err := e.WorstCaseRiskSweep(context.Background(), nil, res, [][]float64{bvec})
		if err != nil {
			t.Fatal(err)
		}
		if risk := risks[0]; risk > entry.T+1e-9 {
			t.Errorf("skyline entry %d: worst risk %g > t=%g", i, risk, entry.T)
		}
	}
}

func TestBreachTests(t *testing.T) {
	e := testEngine(t, 200)
	p := Params{K: 3, L: 4, T: 0.2, B: 0.3}
	m := e.Table.Schema.M()

	uniform := prob.Uniform(m)
	spiky := prob.New(m)
	spiky[0] = 0.9
	spiky[1] = 0.1

	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), p.B)
	criterion := func(m Model) privacy.Criterion { return e.BreachTest(m, p).Criterion(bvec) }
	for _, m := range []Model{DistinctLDiversity, ProbabilisticLDiversity} {
		ldiv := criterion(m).Breach
		if ldiv(uniform, uniform) {
			t.Errorf("%s: uniform posterior breached 4-diversity (1/14 < 1/4)", m)
		}
		if !ldiv(uniform, spiky) {
			t.Errorf("%s: 0.9-peak posterior not breached under L=4", m)
		}
	}

	tc := criterion(TCloseness).Breach
	if tc(uniform, uniform) {
		t.Error("identical prior/posterior breached t-closeness")
	}
	if !tc(spiky, uniform) {
		t.Error("large EMD drift not breached under t=0.2")
	}

	// (B,t) is the gain criterion: no per-record test, the knowledge
	// gain the attack computes anyway against t. The criterion itself
	// is the measure threshold:
	if bt := criterion(BTPrivacy); bt.Breach != nil || bt.Gain != p.T {
		t.Errorf("(B,t) criterion = {Gain: %g, Breach set: %t}, want the gain criterion at t=%g", bt.Gain, bt.Breach != nil, p.T)
	}
	if gain := e.Measure.Distance(uniform, uniform); gain > p.T {
		t.Errorf("no-gain pair measures %g > t=%g", gain, p.T)
	}
	if gain := e.Measure.Distance(uniform, spiky); gain <= p.T {
		t.Errorf("large-gain pair measures %g <= t=%g", gain, p.T)
	}
}

func TestWorstCaseRiskMatchesAttack(t *testing.T) {
	e := testEngine(t, 300)
	p := Table5()[0]
	res, _, err := e.RunAlgorithm("mondrian", DistinctLDiversity.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), 0.4)
	risks, err := e.WorstCaseRiskSweep(context.Background(), nil, res, [][]float64{bvec})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.AttackWith(context.Background(), nil, res, bvec, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	risk := risks[0]
	if risk != rep.WorstRisk {
		t.Errorf("WorstCaseRiskSweep %g != AttackWith.WorstRisk %g", risk, rep.WorstRisk)
	}
	max := 0.0
	for _, r := range rep.Risks {
		if r > max {
			max = r
		}
	}
	if math.Abs(max-risk) > 1e-12 {
		t.Errorf("max of Risks %g != WorstRisk %g", max, risk)
	}
}

func TestProfile(t *testing.T) {
	// 100 risks 0.01..1.00, shuffled: each quantile is its own rank.
	risks := make([]float64, 100)
	for i := range risks {
		risks[i] = float64((i*37)%100+1) / 100
	}
	in := append([]float64(nil), risks...)
	got := Profile(risks)
	if got.P50 != 0.50 || got.P90 != 0.90 || got.P99 != 0.99 {
		t.Errorf("Profile quantiles = %+v, want 0.50/0.90/0.99", got)
	}
	if math.Abs(got.Mean-0.505) > 1e-12 {
		t.Errorf("Profile mean = %g, want 0.505", got.Mean)
	}
	for i := range risks {
		if risks[i] != in[i] {
			t.Fatal("Profile mutated its input")
		}
	}
	// At n=20, p90 is the 18th smallest (rank ceil(0.9·20) = 18); the
	// floor rule risks[int(0.9*n)] would read the 19th.
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(20 - i)
	}
	if p := Profile(twenty); p.P90 != 18 || p.P50 != 10 || p.P99 != 20 {
		t.Errorf("Profile(1..20) = %+v, want P50 10, P90 18, P99 20", p)
	}
	if p := Profile([]float64{0.3}); p != (RiskProfile{Mean: 0.3, P50: 0.3, P90: 0.3, P99: 0.3}) {
		t.Errorf("Profile of one record = %+v", p)
	}
	if p := Profile(nil); p != (RiskProfile{}) {
		t.Errorf("Profile of no records = %+v, want zeros", p)
	}
}

func TestExactMethodEngine(t *testing.T) {
	// The engine accepts adaptive inference (exact for small groups,
	// Ω for oversized ones); the pipeline must run end to end.
	tab := adult.Generate(150, 9)
	e, err := New(tab, adult.Hierarchies(), kernel.Epanechnikov{}, inference.Adaptive{})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{K: 3, L: 3, T: 0.25, B: 0.3}
	res, _, err := e.RunAlgorithm("mondrian", BTPrivacy.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), p.B)
	rep, err := e.AttackWith(context.Background(), nil, res, bvec, p.T, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vulnerable != 0 {
		t.Errorf("exact-method (B,t) release has %d vulnerable tuples at enforced B", rep.Vulnerable)
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	want := []Params{
		{K: 3, L: 3, T: 0.25, B: 0.3},
		{K: 4, L: 4, T: 0.2, B: 0.3},
		{K: 5, L: 5, T: 0.15, B: 0.3},
		{K: 6, L: 6, T: 0.1, B: 0.3},
	}
	got := Table5()
	if len(got) != len(want) {
		t.Fatalf("Table5 has %d entries", len(got))
	}
	for i := range want {
		if got[i].K != want[i].K || got[i].L != want[i].L ||
			got[i].T != want[i].T || got[i].B != want[i].B {
			t.Errorf("para%d = %+v, want %+v", i+1, got[i], want[i])
		}
	}
}

func TestModelStrings(t *testing.T) {
	if DistinctLDiversity.String() != "distinct-l-diversity" ||
		BTPrivacy.String() != "(B,t)-privacy" {
		t.Error("model names drifted from the paper's")
	}
	if len(AllModels()) != 4 {
		t.Error("AllModels should list the four evaluated models")
	}
	// Every key parses back to its model; an out-of-range value has
	// empty names instead of panicking.
	for _, m := range AllModels() {
		if got, ok := ParseModel(m.Key()); !ok || got != m {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", m.Key(), got, ok, m)
		}
	}
	for _, m := range []Model{-1, Skyline + 1} {
		if m.String() != "" || m.Key() != "" {
			t.Errorf("Model(%d) names = %q, %q; want empty", int(m), m.String(), m.Key())
		}
	}
}

func TestRequirementUnknownModel(t *testing.T) {
	e := testEngine(t, 100)
	if _, err := e.RequirementByName("nope", Table5()[0]); err == nil {
		t.Error("accepted unknown model")
	}
}

func TestRequirementNames(t *testing.T) {
	e := testEngine(t, 100)
	p := Table5()[1]
	req, err := e.RequirementByName(TCloseness.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(req.Name(), "4-anonymity") || !strings.Contains(req.Name(), "0.2-closeness") {
		t.Errorf("name = %s", req.Name())
	}
}

var _ privacy.Requirement = privacy.Skyline{} // interface conformance pin

// TestRunAlgorithmRejectsUnsatisfiableRoot pins the release audit:
// Mondrian never checks its root, so a request no split can meet used
// to come back as one group failing the requirement it names. It now
// reports it as privacy.ErrUnsatisfiable, and a single group that does
// meet its requirement is still released.
func TestRunAlgorithmRejectsUnsatisfiableRoot(t *testing.T) {
	e, err := New(adult.Generate(200, 1), adult.Hierarchies(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.RunAlgorithm("mondrian", "distinct", Params{K: 1000, L: 50})
	if !errors.Is(err, privacy.ErrUnsatisfiable) {
		t.Fatalf("err = %v (release %v), want privacy.ErrUnsatisfiable", err, res)
	}
	if !strings.Contains(err.Error(), "1000-anonymity+distinct-50-diversity") {
		t.Errorf("error %q does not name the requirement", err)
	}
	res, _, err = e.RunAlgorithm("mondrian", "distinct", Params{K: 200, L: 1})
	if err != nil {
		t.Fatalf("satisfiable whole-table release: %v", err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("k=n release has %d groups, want 1", len(res.Groups))
	}
}

// TestRunAlgorithmRejectsRetiredAlgorithms: Mondrian is the one
// algorithm RunAlgorithm runs; any other name is an error naming it,
// with no release and no levels.
func TestRunAlgorithmRejectsRetiredAlgorithms(t *testing.T) {
	e, err := New(adult.Generate(200, 1), adult.Hierarchies(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"anatomy", "incognito", ""} {
		res, levels, err := e.RunAlgorithm(algo, "distinct", Table5()[0])
		if err == nil || !strings.Contains(err.Error(), "mondrian") || res != nil || levels != nil {
			t.Errorf("%q: release %v, levels %v, err %v; want an error naming mondrian", algo, res, levels, err)
		}
	}
}

// TestSkylineIsAModel pins skyline as an entry of the one model table:
// its key parses back, RequirementByName builds the skyline ladder from
// it, and attacks breach it under the gain criterion of the ladder
// entry nearest the adversary's bandwidth, the stricter on a tie.
func TestSkylineIsAModel(t *testing.T) {
	if m, ok := ParseModel("skyline"); !ok || m != Skyline || m.Key() != "skyline" {
		t.Fatalf(`ParseModel("skyline") = %v, %v; want Skyline, true`, m, ok)
	}
	e := testEngine(t, 100)
	p := Table5()[0]
	req, err := e.RequirementByName(Skyline.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(req.Name(), "skyline{") {
		t.Errorf("skyline requirement name = %s", req.Name())
	}
	judge := e.BreachTest(Skyline, p)
	d := e.Table.Schema.D()
	for _, c := range []struct{ b, t float64 }{
		{0.05, p.T}, {0.2, p.T}, {0.26, p.T}, {0.3, p.T},
		{0.4, p.T}, // the midpoint of 0.3 and 0.5: a tie
		{0.45, p.T + 0.05}, {0.5, p.T + 0.05}, {0.9, p.T + 0.05},
	} {
		if got := judge.Criterion(kernel.UniformBandwidth(d, c.b)); got.Breach != nil || got.Gain != c.t {
			t.Errorf("b'=%g: criterion {Gain: %g, Breach set: %t}, want gain > %g", c.b, got.Gain, got.Breach != nil, c.t)
		}
	}
	// At B=0.5 the (B,t) and (0.5, t+0.05) entries coincide; the
	// stricter judges.
	tie := e.BreachTest(Skyline, Params{K: 3, T: 0.2, B: 0.5})
	if got := tie.Criterion(kernel.UniformBandwidth(d, 0.5)); got.Gain != 0.2 {
		t.Errorf("tied entries at b'=0.5: criterion gain %g, want the stricter 0.2", got.Gain)
	}
}

// TestSkylineReleaseHasNoVulnerableTuplesAtItsLadder is the skyline twin
// of TestBTReleaseHasNoVulnerableTuplesAtEnforcedB: each entry (B_i,
// t_i) promises gain ≤ t_i against Adv(B_i), so an attack at each
// ladder point, judged by the release's own requirement, finds no
// vulnerable tuple.
func TestSkylineReleaseHasNoVulnerableTuplesAtItsLadder(t *testing.T) {
	e := testEngine(t, 800)
	p := Table5()[0]
	res, _, err := e.RunAlgorithm("mondrian", Skyline.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, bp := range []float64{0.2, p.B, 0.5} {
		rep, err := e.AttackWith(context.Background(), nil, res, kernel.UniformBandwidth(e.Table.Schema.D(), bp), p.T, e.BreachTest(Skyline, p))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Vulnerable != 0 {
			t.Errorf("b'=%g: %d vulnerable tuples (worst risk %.4f), want 0", bp, rep.Vulnerable, rep.WorstRisk)
		}
	}
}

// TestOmegaWithinPaperBoundOnReleaseClasses checks §V-B's claim — the
// Ω-estimate's distance error stays within 0.1 of exact inference — on
// the classes of a real (B,t) release rather than Figure 2's random
// groups. A class's error is Figure 2's ρ: the mean over its tuples of
// |D[prior, P_exact] − D[prior, P_Ω]|. The claim is empirical and
// holds in aggregate, not for every class (see DESIGN.md), so the mean
// over classes is asserted and each class above the bound is logged.
func TestOmegaWithinPaperBoundOnReleaseClasses(t *testing.T) {
	e := testEngine(t, 600)
	res, _, err := e.RunAlgorithm("mondrian", BTPrivacy.Key(), Table5()[0])
	if err != nil {
		t.Fatal(err)
	}
	const bound = 0.1
	for _, bp := range []float64{0.2, 0.3, 0.4, 0.5} {
		priors, err := e.UniformPriors(bp)
		if err != nil {
			t.Fatal(err)
		}
		sum, over := 0.0, 0
		for gi, g := range res.Groups {
			gp := make([]prob.Dist, g.Size())
			for i, ri := range g.Rows {
				gp[i] = priors[ri]
			}
			counts := e.Table.SensitiveCounts(g.Rows)
			exact, omega, same := make([]float64, g.Size()), make([]float64, g.Size()), make([]int, g.Size())
			if _, err := privacy.ClassGains(inference.Exact{}, e.Measure, gp, counts, exact, same, math.Inf(-1)); err != nil {
				t.Fatalf("b'=%g class %d (%d tuples): %v", bp, gi, g.Size(), err)
			}
			if _, err := privacy.ClassGains(inference.Omega{}, e.Measure, gp, counts, omega, same, math.Inf(-1)); err != nil {
				t.Fatal(err)
			}
			rho := 0.0
			for i := range exact {
				rho += math.Abs(exact[i] - omega[i])
			}
			rho /= float64(len(exact))
			sum += rho
			if rho > bound {
				over++
				t.Logf("b'=%g class %d (%d tuples): ρ = %.4f > %g", bp, gi, g.Size(), rho, bound)
			}
		}
		mean := sum / float64(len(res.Groups))
		t.Logf("b'=%g: mean ρ = %.4f over %d classes, %d above %g", bp, mean, len(res.Groups), over, bound)
		if mean > bound {
			t.Errorf("b'=%g: mean Ω error %.4f exceeds the paper's %g", bp, mean, bound)
		}
	}
}
