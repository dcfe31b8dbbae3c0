package privacy

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/adult"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/prob"
)

// testTable builds a small table with one numeric QI and 4 sensitive
// values.
func testTable() *dataset.Table {
	sch := &dataset.Schema{
		QI:        []*dataset.Attribute{dataset.NewNumeric("Age", []float64{20, 30, 40, 50, 60, 70})},
		Sensitive: dataset.NewCategorical("D", []string{"a", "b", "c", "d"}),
	}
	tab := &dataset.Table{Schema: sch}
	svals := []int{0, 0, 1, 1, 2, 2, 3, 3, 0, 1}
	for i, s := range svals {
		tab.Records = append(tab.Records, dataset.Record{QI: []int{i % 6}, S: s})
	}
	return tab
}

// GroupRisks returns, per record in rows, the adversary's knowledge
// gain D[prior, posterior], every one measured exactly: the oracle the
// bound-first Satisfied is checked against. A method that refuses the
// group panics, as Satisfied does.
func (b BTPrivacy) GroupRisks(rows []int) []float64 {
	priors := make([]prob.Dist, len(rows))
	for i, ri := range rows {
		priors[i] = b.Priors[ri]
	}
	gains := make([]float64, len(rows))
	if _, err := ClassGains(b.method(), b.Measure, priors, b.Table.SensitiveCounts(rows), gains, make([]int, len(rows)), math.Inf(-1)); err != nil {
		panic(err)
	}
	return gains
}

// WorstRisk returns the maximum exact knowledge gain over the group,
// and 0 for an empty one.
func (b BTPrivacy) WorstRisk(rows []int) float64 {
	worst := 0.0
	for _, r := range b.GroupRisks(rows) {
		if r > worst {
			worst = r
		}
	}
	return worst
}

func flatMatrix(m int) [][]float64 {
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, m)
		for j := range out[i] {
			if i != j {
				out[i][j] = 1
			}
		}
	}
	return out
}

func TestKAnonymity(t *testing.T) {
	k := KAnonymity{K: 3}
	if k.Satisfied([]int{0, 1}) {
		t.Error("accepted group of 2")
	}
	if !k.Satisfied([]int{0, 1, 2}) {
		t.Error("rejected group of 3")
	}
	if k.Name() != "3-anonymity" {
		t.Errorf("name = %s", k.Name())
	}
}

func TestDistinctLDiversity(t *testing.T) {
	tab := testTable()
	l := DistinctLDiversity{L: 3, Table: tab}
	// Records 0,1 both have value a; 0,2,4 have a,b,c.
	if l.Satisfied([]int{0, 1}) {
		t.Error("accepted 1-distinct group")
	}
	if !l.Satisfied([]int{0, 2, 4}) {
		t.Error("rejected 3-distinct group")
	}
	if l.Satisfied([]int{0, 1, 2}) {
		t.Error("accepted 2-distinct group of 3")
	}
}

func TestProbabilisticLDiversity(t *testing.T) {
	tab := testTable()
	l := ProbabilisticLDiversity{L: 2, Table: tab}
	// {a,a,b}: max freq 2/3 > 1/2 → reject.
	if l.Satisfied([]int{0, 1, 2}) {
		t.Error("accepted max-frequency 2/3 under L=2")
	}
	// {a,a,b,b}: max freq 1/2 ≤ 1/2 → accept.
	if !l.Satisfied([]int{0, 1, 2, 3}) {
		t.Error("rejected max-frequency 1/2 under L=2")
	}
	if l.Satisfied(nil) {
		t.Error("accepted empty group")
	}
}

func TestTCloseness(t *testing.T) {
	tab := testTable()
	whole := prob.FromCounts(tab.SensitiveCounts(nil))
	tc := TCloseness{T: 0.3, Table: tab, Whole: whole, M: flatMatrix(4)}
	// The whole table trivially satisfies any t.
	all := make([]int, tab.N())
	for i := range all {
		all[i] = i
	}
	if !tc.Satisfied(all) {
		t.Error("whole table rejected")
	}
	// A pure-'a' group has EMD 1-0.3 = 0.7 from the whole distribution.
	if tc.Satisfied([]int{0, 1, 8}) {
		t.Error("accepted far group under t=0.3")
	}
	strict := TCloseness{T: 0.0001, Table: tab, Whole: whole, M: flatMatrix(4)}
	if strict.Satisfied([]int{0, 2, 4, 6}) {
		t.Error("accepted non-identical distribution under t≈0")
	}
}

// btFixture builds a BTPrivacy requirement with kernel priors.
func btFixture(t *testing.T, tab *dataset.Table, tt float64) BTPrivacy {
	t.Helper()
	est, err := kernel.NewEstimator(tab, nil, kernel.Epanechnikov{})
	if err != nil {
		t.Fatal(err)
	}
	priors, err := est.Priors(kernel.UniformBandwidth(1, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	return BTPrivacy{
		T:       tt,
		Table:   tab,
		Priors:  priors,
		Measure: distance.NewSmoothedJS(flatMatrix(tab.Schema.M()), kernel.Epanechnikov{}, 0.6),
		B:       []float64{0.3},
	}
}

func TestBTPrivacyThresholds(t *testing.T) {
	tab := testTable()
	// With a permissive threshold everything passes; with an impossible
	// threshold only gain-free groups pass.
	loose := btFixture(t, tab, 1.0)
	all := make([]int, tab.N())
	for i := range all {
		all[i] = i
	}
	if !loose.Satisfied(all) {
		t.Error("loose threshold rejected whole table")
	}
	tight := btFixture(t, tab, 0.0)
	// A mixed group almost surely moves some belief.
	if tight.Satisfied([]int{0, 2, 4, 6}) {
		t.Error("zero threshold accepted a belief-moving group")
	}
	if tight.Satisfied(nil) {
		t.Error("accepted empty group")
	}
}

func TestBTPrivacyRisksMatchWorst(t *testing.T) {
	tab := testTable()
	bt := btFixture(t, tab, 0.5)
	rows := []int{0, 2, 4, 6}
	risks := bt.GroupRisks(rows)
	worst := bt.WorstRisk(rows)
	max := 0.0
	for _, r := range risks {
		if r > max {
			max = r
		}
	}
	if worst != max {
		t.Errorf("WorstRisk %g != max of risks %g", worst, max)
	}
	if len(risks) != len(rows) {
		t.Errorf("got %d risks for %d rows", len(risks), len(rows))
	}
}

func TestBTPrivacyEmptyGroup(t *testing.T) {
	// No rows: no risks and an unsatisfied check under every method,
	// although SensitiveCounts(nil) is the whole table's histogram.
	bt := btFixture(t, testTable(), 0.5)
	for _, m := range []inference.Method{inference.Omega{}, inference.Exact{}, inference.Adaptive{}} {
		bt.Method = m
		if r := bt.GroupRisks(nil); r == nil || len(r) != 0 {
			t.Errorf("%s: GroupRisks(nil) = %#v, want empty", m.Name(), r)
		}
		if bt.WorstRisk(nil) != 0 || bt.Satisfied(nil) {
			t.Errorf("%s: WorstRisk(nil) = %g, Satisfied(nil) = %v", m.Name(), bt.WorstRisk(nil), bt.Satisfied(nil))
		}
	}
}

func TestBTPrivacyDefaultsToOmega(t *testing.T) {
	tab := testTable()
	bt := btFixture(t, tab, 0.5)
	if bt.method().Name() != "omega" {
		t.Errorf("default method = %s", bt.method().Name())
	}
	bt.Method = inference.Exact{}
	if bt.method().Name() != "exact" {
		t.Errorf("explicit method = %s", bt.method().Name())
	}
}

func TestBTPrivacyExactVsOmegaConsistency(t *testing.T) {
	// Both inference methods must agree on gain-free groups (uniform
	// priors within the group) — a regression guard for the plumbing.
	tab := testTable()
	bt := btFixture(t, tab, 0.5)
	btExact := bt
	btExact.Method = inference.Exact{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		rows := rng.Perm(tab.N())[:n]
		// Risks must be finite, non-negative under both methods.
		for _, b := range []BTPrivacy{bt, btExact} {
			for _, r := range b.GroupRisks(rows) {
				if r < 0 || r != r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSkyline(t *testing.T) {
	tab := testTable()
	loose := btFixture(t, tab, 1.0)
	tight := btFixture(t, tab, 0.0)
	rows := []int{0, 2, 4, 6}
	sky := Skyline{Entries: []BTPrivacy{loose, tight}}
	if sky.Satisfied(rows) {
		t.Error("skyline with an unsatisfiable entry accepted a group")
	}
	sky2 := Skyline{Entries: []BTPrivacy{loose}}
	if !sky2.Satisfied(rows) {
		t.Error("skyline with loose entry rejected a group")
	}
	empty := Skyline{}
	if empty.Satisfied(rows) {
		t.Error("empty skyline should not vacuously accept")
	}
	if !strings.Contains(sky.Name(), "skyline{") {
		t.Errorf("name = %s", sky.Name())
	}
}

func TestAnd(t *testing.T) {
	tab := testTable()
	req := And{Parts: []Requirement{
		KAnonymity{K: 3},
		DistinctLDiversity{L: 3, Table: tab},
	}}
	if req.Satisfied([]int{0, 2}) {
		t.Error("accepted group failing k-anonymity")
	}
	if req.Satisfied([]int{0, 1, 8}) {
		t.Error("accepted group failing diversity")
	}
	if !req.Satisfied([]int{0, 2, 4}) {
		t.Error("rejected satisfying group")
	}
	if !strings.Contains(req.Name(), "+") {
		t.Errorf("name = %s", req.Name())
	}
}

func TestNames(t *testing.T) {
	tab := testTable()
	for _, c := range []struct {
		req  Requirement
		want string
	}{
		{DistinctLDiversity{L: 4, Table: tab}, "distinct-4-diversity"},
		{ProbabilisticLDiversity{L: 2.5, Table: tab}, "probabilistic-2.5-diversity"},
		{TCloseness{T: 0.2}, "0.2-closeness"},
		{BTPrivacy{T: 0.1, B: []float64{0.3}}, "(B=0.3,0.1)-privacy"},
		{BTPrivacy{T: 0.1}, "(B,0.1)-privacy"},
	} {
		if got := c.req.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

// TestSatisfiedMatchesWorstRisk is the check identity of the
// bound-first (B,t) decision: on random row subsets of an Adult table
// under the engine's measure (smoothed JS on Occupation at b = 0.51),
// Satisfied equals the exact oracle WorstRisk ≤ T at every threshold,
// under Ω, adaptive and (on small subsets) exact inference.
func TestSatisfiedMatchesWorstRisk(t *testing.T) {
	tab := adult.Generate(400, 7)
	hiers := adult.Hierarchies()
	est, err := kernel.NewEstimator(tab, hiers, kernel.Epanechnikov{})
	if err != nil {
		t.Fatal(err)
	}
	priors, err := est.Priors(kernel.UniformBandwidth(tab.Schema.D(), 0.3))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := kernel.AttributeMatrix(tab.Schema.Sensitive, hiers[tab.Schema.Sensitive.Name])
	if err != nil {
		t.Fatal(err)
	}
	measure := distance.NewSmoothedJS(sm, kernel.Epanechnikov{}, 0.51)
	rng := rand.New(rand.NewSource(31))
	passed, failed := 0, 0
	for trial := 0; trial < 300; trial++ {
		size := 1 + rng.Intn(40)
		methods := []inference.Method{inference.Omega{}, inference.Adaptive{MaxStates: 4096}}
		if size <= 8 {
			methods = append(methods, inference.Exact{})
		}
		rows := rng.Perm(tab.N())[:size]
		for _, m := range methods {
			for _, tt := range []float64{0, 1e-12, 0.05, 0.25, 1} {
				bt := BTPrivacy{T: tt, Table: tab, Priors: priors, Measure: measure, Method: m}
				want := bt.WorstRisk(rows) <= tt
				if got := bt.Satisfied(rows); got != want {
					t.Fatalf("trial %d %s T=%g: Satisfied %v, oracle WorstRisk %v", trial, m.Name(), tt, got, bt.WorstRisk(rows))
				}
				if want {
					passed++
				} else {
					failed++
				}
			}
		}
	}
	if passed == 0 || failed == 0 {
		t.Errorf("%d checks passed and %d failed; the identity is not discriminating", passed, failed)
	}
	t.Logf("%d checks passed, %d failed", passed, failed)
}

// TestSatisfiedMatchesWorstRiskGaussian is TestSatisfiedMatchesWorstRisk
// under the Gaussian ablation kernel, for the priors and for the
// measure's smoothing: its weights fill every column, so the tilted
// bound is loosest there. Its gains are smaller than Epanechnikov's,
// so the thresholds reach down to 1e-4.
func TestSatisfiedMatchesWorstRiskGaussian(t *testing.T) {
	tab := adult.Generate(400, 7)
	hiers := adult.Hierarchies()
	est, err := kernel.NewEstimator(tab, hiers, kernel.Gaussian{})
	if err != nil {
		t.Fatal(err)
	}
	priors, err := est.Priors(kernel.UniformBandwidth(tab.Schema.D(), 0.3))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := kernel.AttributeMatrix(tab.Schema.Sensitive, hiers[tab.Schema.Sensitive.Name])
	if err != nil {
		t.Fatal(err)
	}
	measure := distance.NewSmoothedJS(sm, kernel.Gaussian{}, 0.51)
	rng := rand.New(rand.NewSource(37))
	passed, failed := 0, 0
	for trial := 0; trial < 300; trial++ {
		size := 1 + rng.Intn(40)
		methods := []inference.Method{inference.Omega{}, inference.Adaptive{MaxStates: 4096}}
		if size <= 8 {
			methods = append(methods, inference.Exact{})
		}
		rows := rng.Perm(tab.N())[:size]
		for _, m := range methods {
			for _, tt := range []float64{0, 1e-12, 1e-4, 1e-3, 0.01, 0.05, 1} {
				bt := BTPrivacy{T: tt, Table: tab, Priors: priors, Measure: measure, Method: m}
				want := bt.WorstRisk(rows) <= tt
				if got := bt.Satisfied(rows); got != want {
					t.Fatalf("trial %d %s T=%g: Satisfied %v, oracle WorstRisk %v", trial, m.Name(), tt, got, bt.WorstRisk(rows))
				}
				if want {
					passed++
				} else {
					failed++
				}
			}
		}
	}
	if passed == 0 || failed == 0 {
		t.Errorf("%d checks passed and %d failed; the identity is not discriminating", passed, failed)
	}
	t.Logf("%d checks passed, %d failed", passed, failed)
}
