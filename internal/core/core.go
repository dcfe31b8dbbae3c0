// Package core is the paper's primary contribution assembled into one
// engine: kernel-estimated background knowledge (§II), posterior
// inference (§III), the kernel-smoothed JS disclosure measure (§IV-B),
// and the (B,t)- and skyline (B,t)-privacy models (§IV-A), wired to the
// Mondrian anonymizer and the baseline models for the paper's
// comparative evaluation (§V).
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/anonymize"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/hierarchy"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/mondrian"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/privacy"
	"repro/internal/prob"
)

// SmoothingBandwidth is the sensitive-domain kernel-smoothing bandwidth
// for the disclosure measure. The paper requires at least 0.5 for a
// height-2 sensitive hierarchy (sibling distance 0.5) so that sibling
// values actually mix; the Epanechnikov kernel has open support, so we
// sit modestly above that bound.
const SmoothingBandwidth = 0.51

// Model names the privacy models compared in the evaluation.
type Model int

const (
	// DistinctLDiversity is distinct ℓ-diversity.
	DistinctLDiversity Model = iota
	// ProbabilisticLDiversity bounds each value's in-group frequency by 1/ℓ.
	ProbabilisticLDiversity
	// TCloseness bounds the EMD between group and table distributions.
	TCloseness
	// BTPrivacy is the paper's (B,t)-privacy model.
	BTPrivacy
	// Skyline is skyline (B,t)-privacy (Definition 2) over the fixed
	// three-entry ladder RequirementByName builds.
	Skyline
)

type modelName struct{ key, display string }

// modelNames is the one table of model names, indexed by Model: the
// CLI/API key ParseModel accepts and Key returns, and the paper's
// display name String returns.
var modelNames = [...]modelName{
	DistinctLDiversity:      {"distinct", "distinct-l-diversity"},
	ProbabilisticLDiversity: {"prob", "probabilistic-l-diversity"},
	TCloseness:              {"tclose", "t-closeness"},
	BTPrivacy:               {"bt", "(B,t)-privacy"},
	Skyline:                 {"skyline", "skyline-(B,t)-privacy"},
}

// names is m's modelNames entry; an out-of-range value has empty names.
func (m Model) names() modelName {
	if m < 0 || int(m) >= len(modelNames) {
		return modelName{}
	}
	return modelNames[m]
}

func (m Model) String() string { return m.names().display }

// Key is the model's CLI/API name, the inverse of ParseModel.
func (m Model) Key() string { return m.names().key }

// AllModels lists the four models the paper's figures compare, in its
// reporting order; Skyline is not among them.
func AllModels() []Model {
	return []Model{DistinctLDiversity, ProbabilisticLDiversity, TCloseness, BTPrivacy}
}

// ParseModel maps a CLI/API model name (distinct, prob, tclose, bt,
// skyline) to the Model enum; it is the one parser of that vocabulary.
func ParseModel(name string) (Model, bool) {
	for m, n := range modelNames {
		if n.key == name {
			return Model(m), true
		}
	}
	return 0, false
}

// Params is one privacy parameter set in the style of the paper's
// Table V: k-anonymity K, ℓ-diversity L, closeness/disclosure bound T,
// and the enforced background-knowledge bandwidth B (uniform across QI
// attributes unless BVec is set).
type Params struct {
	K    int
	L    int
	T    float64
	B    float64
	BVec []float64 // optional per-attribute bandwidth, overrides B
}

// Table5 returns the paper's four parameter sets para1..para4.
func Table5() []Params {
	return []Params{
		{K: 3, L: 3, T: 0.25, B: 0.3},
		{K: 4, L: 4, T: 0.2, B: 0.3},
		{K: 5, L: 5, T: 0.15, B: 0.3},
		{K: 6, L: 6, T: 0.1, B: 0.3},
	}
}

// Engine binds a table to the framework: estimator, sensitive distance
// matrix, disclosure measure, bounded per-bandwidth prior cache, and
// model construction.
type Engine struct {
	Table     *dataset.Table
	Hiers     map[string]*hierarchy.Hierarchy
	Kernel    kernel.Func
	Estimator *kernel.Estimator
	// SensMatrix is the sensitive attribute's semantic distance matrix.
	SensMatrix [][]float64
	// Measure is the paper's kernel-smoothed JS disclosure measure.
	Measure distance.Measure
	// Method computes posteriors inside (B,t) checks and attacks.
	Method inference.Method

	workers int // 0 = unset (all cores); set via WithWorkers

	// priors memoizes Adv(B)'s per-record priors by bandwidth vector,
	// bounded at priorCacheCap so a client sending fresh bandwidths
	// cannot grow a resident engine without bound.
	priors *parallel.Cache[[]prob.Dist]
}

// priorCacheCap bounds the engine's prior cache. It equals the serving
// layer's maximal sweep width (service.MaxSweepPoints), so a repeated
// maximal sweep stays warm; the benchmark workloads and the paper's
// figures use fewer than 30 bandwidths per table and never evict.
const priorCacheCap = 64

// Option configures an Engine at construction.
type Option func(*Engine)

// WithWorkers bounds the engine's worker pool for breach testing,
// attacks, prior estimation, and Mondrian partitioning. n ≤ 0 forces
// the sequential path; without this option the engine uses all cores.
// Every setting produces bit-identical results — parallel stages fan
// in by index and reductions stay ordered.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n <= 0 {
			n = -1
		}
		e.workers = n
	}
}

// Workers returns the engine's effective worker-pool size: the unset
// field (0) resolves to all cores, WithWorkers' sentinel to 1.
func (e *Engine) Workers() int {
	return parallel.Resolve(e.workers)
}

// New builds an engine. hiers maps attribute names (QI and sensitive)
// to hierarchies; missing entries fall back to flat hierarchies. A nil
// kernel defaults to Epanechnikov, a nil method to the Ω-estimate.
func New(t *dataset.Table, hiers map[string]*hierarchy.Hierarchy, k kernel.Func, method inference.Method, opts ...Option) (*Engine, error) {
	if k == nil {
		k = kernel.Epanechnikov{}
	}
	if method == nil {
		method = inference.Omega{}
	}
	est, err := kernel.NewEstimator(t, hiers, k)
	if err != nil {
		return nil, fmt.Errorf("core: building estimator: %w", err)
	}
	sm, err := kernel.AttributeMatrix(t.Schema.Sensitive, hiers[t.Schema.Sensitive.Name])
	if err != nil {
		return nil, fmt.Errorf("core: sensitive distance matrix: %w", err)
	}
	e := &Engine{
		Table:      t,
		Hiers:      hiers,
		Kernel:     k,
		Estimator:  est,
		SensMatrix: sm,
		Measure:    distance.NewSmoothedJS(sm, k, SmoothingBandwidth),
		Method:     method,
		priors:     parallel.NewCache[[]prob.Dist](priorCacheCap),
	}
	for _, opt := range opts {
		opt(e)
	}
	e.Estimator.Workers = e.Workers()
	return e, nil
}

// Priors returns the per-record prior beliefs of adversary Adv(B),
// computing and caching them on first use.
func (e *Engine) Priors(b []float64) ([]prob.Dist, error) {
	return e.priorsSpan(nil, b)
}

// priorsSpan is Priors with a recorder: the estimator's table build
// and prior pass land as stage spans under sp. Because cache admission
// is a singleflight, only the computing caller records spans — later
// and concurrent callers attach nothing, so shared work is attributed
// exactly once (to whoever actually ran it). Errors (an invalid
// bandwidth) are not cached.
func (e *Engine) priorsSpan(sp *obs.Span, b []float64) ([]prob.Dist, error) {
	priors, _, err := e.priors.Do(kernel.BandwidthKey(b), func() ([]prob.Dist, error) {
		return e.Estimator.PriorsSpan(sp, b)
	})
	return priors, err
}

// UniformPriors is Priors with the uniform bandwidth vector (b,…,b).
func (e *Engine) UniformPriors(b float64) ([]prob.Dist, error) {
	return e.Priors(kernel.UniformBandwidth(e.Table.Schema.D(), b))
}

// RequirementByName builds the composed requirement (model ∧
// K-anonymity, as the evaluation enforces, §V) for a CLI/API model
// name, as ParseModel accepts it: distinct, prob, tclose, bt or
// skyline. Skyline enforces SkylineLadder(p), composed with
// K-anonymity.
func (e *Engine) RequirementByName(name string, p Params) (privacy.Requirement, error) {
	return e.requirementByNameSpan(nil, nil, name, p)
}

// requirementByNameSpan is RequirementByName with a recorder for the
// (B,t) prior pass. method overrides the engine's inference method
// inside (B,t) checks when non-nil (nil everywhere except the serving
// layer's release-level override).
func (e *Engine) requirementByNameSpan(sp *obs.Span, method inference.Method, name string, p Params) (privacy.Requirement, error) {
	m, ok := ParseModel(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown model %q", name)
	}
	var attr privacy.Requirement
	switch m {
	case DistinctLDiversity:
		attr = privacy.DistinctLDiversity{L: p.L, Table: e.Table}
	case ProbabilisticLDiversity:
		attr = privacy.ProbabilisticLDiversity{L: float64(p.L), Table: e.Table}
	case TCloseness:
		attr = privacy.TCloseness{
			T:     p.T,
			Table: e.Table,
			Whole: e.Estimator.WholeTableDist(),
			M:     e.SensMatrix,
		}
	case Skyline:
		return e.skylineRequirementSpan(sp, method, p.K, SkylineLadder(p))
	default: // BTPrivacy, the one model left
		bt, err := e.btRequirementSpan(sp, method, p)
		if err != nil {
			return nil, err
		}
		attr = bt
	}
	return privacy.And{Parts: []privacy.Requirement{privacy.KAnonymity{K: p.K}, attr}}, nil
}

// btRequirementSpan builds the bare (B,t) requirement for a parameter
// set, with a recorder for its prior pass and an optional
// inference-method override.
func (e *Engine) btRequirementSpan(sp *obs.Span, method inference.Method, p Params) (privacy.BTPrivacy, error) {
	bvec := p.BVec
	if bvec == nil {
		bvec = kernel.UniformBandwidth(e.Table.Schema.D(), p.B)
	}
	priors, err := e.priorsSpan(sp, bvec)
	if err != nil {
		return privacy.BTPrivacy{}, err
	}
	return privacy.BTPrivacy{
		T:       p.T,
		Table:   e.Table,
		Priors:  priors,
		Measure: e.Measure,
		Method:  e.methodOr(method),
		B:       bvec,
	}, nil
}

// SkylineLadder is the fixed three-entry (B_i, t_i) ladder the skyline
// model enforces around the requested (B, t): {(0.2, t), (B, t),
// (0.5, t+0.05)}.
func SkylineLadder(p Params) []Params {
	return []Params{{B: 0.2, T: p.T}, {B: p.B, T: p.T}, {B: 0.5, T: p.T + 0.05}}
}

// SkylineRequirement builds the skyline (B,t) requirement for a set of
// (B_i, t_i) pairs, composed with K-anonymity.
func (e *Engine) SkylineRequirement(k int, entries []Params) (privacy.Requirement, error) {
	return e.skylineRequirementSpan(nil, nil, k, entries)
}

// skylineRequirementSpan is SkylineRequirement with a recorder.
func (e *Engine) skylineRequirementSpan(sp *obs.Span, method inference.Method, k int, entries []Params) (privacy.Requirement, error) {
	sky := privacy.Skyline{}
	for _, p := range entries {
		bt, err := e.btRequirementSpan(sp, method, p)
		if err != nil {
			return nil, err
		}
		sky.Entries = append(sky.Entries, bt)
	}
	return privacy.And{Parts: []privacy.Requirement{privacy.KAnonymity{K: k}, sky}}, nil
}

// Anonymize runs the Mondrian variant with the given requirement,
// partitioning subtrees on the engine's worker pool. The result is the
// raw partition: its root group is never checked, so a single-group
// result may fail req. RunAlgorithm is the checked path; a caller of
// Anonymize with a requirement RunAlgorithm cannot name (a custom
// skyline ladder) checks the result with Audit.
func (e *Engine) Anonymize(req privacy.Requirement) *anonymize.Result {
	return e.anonymizeSpan(nil, req)
}

// anonymizeSpan is Anonymize with a recorder: the whole recursion lands
// as one mondrian stage span under sp.
func (e *Engine) anonymizeSpan(sp *obs.Span, req privacy.Requirement) *anonymize.Result {
	p := &mondrian.Partitioner{Table: e.Table, Req: req, Workers: e.Workers(), Span: sp}
	return p.Anonymize()
}

// RunAlgorithm is the shared dispatch for the CLI and the examples: it
// runs Mondrian under the named model (see RequirementByName) and
// audits the release. A requirement no release meets fails with an
// error wrapping privacy.ErrUnsatisfiable. algo must be "mondrian",
// and levels is always nil; both stay for callers that pin this
// signature.
func (e *Engine) RunAlgorithm(algo, model string, p Params) (res *anonymize.Result, levels []int, err error) {
	if algo != "mondrian" {
		return nil, nil, fmt.Errorf("core: unknown algorithm %q (want mondrian)", algo)
	}
	res, _, err = e.runAlgorithm(nil, nil, model, p)
	return res, nil, err
}

// RunAlgorithmWith is RunAlgorithm under a traced request, with a
// per-release inference method for the (B,t) breach checks the
// pipeline runs (nil = engine default). The pipeline's stages (prior
// passes, partitioning) are recorded as children of the context's
// span; a context without one runs identically with zero recording
// overhead. Exact is rejected at the request layer for releases —
// Mondrian's initial group is the whole table, far past any exact
// bound — so only Ω and adaptive reach here. It also returns the
// requirement, which judges attacks on the release.
func (e *Engine) RunAlgorithmWith(ctx context.Context, m inference.Method, model string, p Params) (res *anonymize.Result, req privacy.Requirement, err error) {
	return e.runAlgorithm(obs.SpanFromContext(ctx), m, model, p)
}

// runAlgorithm is the span-threaded Mondrian run behind the entry
// points.
func (e *Engine) runAlgorithm(sp *obs.Span, method inference.Method, model string, p Params) (res *anonymize.Result, req privacy.Requirement, err error) {
	if req, err = e.requirementByNameSpan(sp, method, model, p); err != nil {
		return nil, nil, err
	}
	res = e.anonymizeSpan(sp, req)
	if err = Audit(res, req); err != nil {
		return nil, nil, err
	}
	return res, req, nil
}

// Audit is the one check of a release, computed or recovered: res must
// partition its table, be labelled req.Name(), and meet req in every
// group; a failing group wraps privacy.ErrUnsatisfiable.
func Audit(res *anonymize.Result, req privacy.Requirement) error {
	if err := res.Validate(); err != nil {
		return fmt.Errorf("core: invalid release: %w", err)
	}
	if res.Requirement != req.Name() {
		return fmt.Errorf("core: release labelled %q is built to meet %s", res.Requirement, req.Name())
	}
	for gi, g := range res.Groups {
		if !req.Satisfied(g.Rows) {
			return fmt.Errorf("core: group %d of %d tuples fails %s: %w", gi, g.Size(), req.Name(), privacy.ErrUnsatisfiable)
		}
	}
	return nil
}

// AuditWith audits a release recovered from disk: it rebuilds the
// requirement of model (method m in (B,t) checks, nil = engine
// default), audits res against it and returns it.
func (e *Engine) AuditWith(ctx context.Context, m inference.Method, model string, p Params, res *anonymize.Result) (privacy.Requirement, error) {
	req, err := e.requirementByNameSpan(obs.SpanFromContext(ctx), m, model, p)
	if err != nil {
		return nil, err
	}
	return req, Audit(res, req)
}

// BreachTest judges attacks on model m's releases under p: it is the
// requirement RequirementByName builds, or nil (gain > t) when that
// fails on an invalid bandwidth.
func (e *Engine) BreachTest(m Model, p Params) privacy.Judge {
	req, _ := e.RequirementByName(m.Key(), p)
	j, _ := req.(privacy.Judge)
	return j
}

// AttackReport summarizes a probabilistic background-knowledge attack
// by adversary Adv(B') against a released table (§V-A).
type AttackReport struct {
	// Risks is the per-record knowledge gain D[prior, posterior].
	Risks []float64
	// Vulnerable counts records breached under the attack's judge at
	// its bandwidth: what the release's requirement promises there.
	Vulnerable int
	// WorstRisk is the maximum gain — the worst-case disclosure risk.
	WorstRisk float64
}

// RiskProfile summarizes per-record disclosure risks: their mean and
// nearest-rank quantiles.
type RiskProfile struct {
	Mean, P50, P90, P99 float64
}

// Profile is the one risk summary every report uses. Quantiles take the
// ceil nearest rank: the q-quantile is the smallest risk with at least
// a q fraction of records at or below it. The mean sums the risks in
// ascending order. risks is not modified; an empty slice profiles to
// zeros.
func Profile(risks []float64) RiskProfile {
	if len(risks) == 0 {
		return RiskProfile{}
	}
	sorted := append([]float64(nil), risks...)
	sort.Float64s(sorted)
	mean := 0.0
	for _, v := range sorted {
		mean += v
	}
	q := func(p float64) float64 {
		idx := int(math.Ceil(p*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	return RiskProfile{
		Mean: mean / float64(len(sorted)),
		P50:  q(0.50),
		P90:  q(0.90),
		P99:  q(0.99),
	}
}

// groupAttack is one equivalence class's contribution to an attack:
// per-record risks in group-row order plus the class's breach count
// and worst gain. Classes are independent, so they evaluate on the
// worker pool; the report is reduced from these in group order.
type groupAttack struct {
	risks      []float64
	vulnerable int
	worst      float64
	// err records a method's refusal of the class (Exact on an
	// oversized group); the ordered fan-in surfaces the first one.
	err error
}

// AttackWith computes the posterior belief of adversary Adv(bvec) for
// every record of the released table, records the knowledge gains, and
// counts breaches under judge's criterion at bvec (the release's
// requirement, or BreachTest's); with a nil judge, the gains above t.
//
// Equivalence classes are evaluated concurrently on the engine's
// worker pool. Each class's inference and measurement is
// self-contained and the reduction runs in group order, so the report
// is bit-identical to the sequential path at any worker count.
//
// The prior pass and the inference fan-out land as stage spans on the
// context's span. m overrides the engine's inference method per call,
// the request-level override the serving layer threads through; a nil
// method uses the engine's default. Exact refuses oversized groups with
// inference.ErrTooLarge (first failing group in group order) instead of
// degrading silently.
func (e *Engine) AttackWith(ctx context.Context, m inference.Method, res *anonymize.Result, bvec []float64, t float64, judge privacy.Judge) (*AttackReport, error) {
	return first(e.attackSweepSpan(obs.SpanFromContext(ctx), m, res, [][]float64{bvec}, t, judge))
}

// first unwraps a one-point sweep: an attack is the sweep over the
// single-bandwidth grid.
func first(reps []*AttackReport, err error) (*AttackReport, error) {
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// methodOr resolves a per-call method override against the engine
// default.
func (e *Engine) methodOr(m inference.Method) inference.Method {
	if m == nil {
		return e.Method
	}
	return m
}

// InferenceStage maps an inference method name to the ledger stage
// its passes are recorded — and priced — under, so the cost model fits
// exact and adaptive traffic separately from the Ω-estimate they
// diverge from (~49× per Figure 2's measurement). Any other name,
// empty included, is the Ω-estimate's stage. A worst-case risk pass
// (risk) measures few pairs exactly, so it has a stage per method of
// its own rather than pooling its cost with the attack's.
func InferenceStage(method string, risk bool) obs.Stage {
	switch {
	case method == inference.NameExact && risk:
		return obs.StageRiskExact
	case method == inference.NameExact:
		return obs.StageInferenceExact
	case method == inference.NameAdaptive && risk:
		return obs.StageRiskAdaptive
	case method == inference.NameAdaptive:
		return obs.StageInferenceAdaptive
	case risk:
		return obs.StageRisk
	}
	return obs.StageInference
}

// attackGroup evaluates class gi of the release at bandwidth bi:
// privacy.ClassGains' per-record knowledge gains, and the breach count
// under crit (the computed gain against crit.Gain when crit.Breach is
// nil). A tuple whose gain
// ClassGains copied from an earlier tuple (bit-identical prior and
// posterior) copies that tuple's breach verdict too. The class works
// only in its own cells of sc, so the per-class fan-out stays
// bit-identical to the sequential path. A method that refuses the group
// (Exact on an oversized class) records its error for the ordered
// fan-in instead of panicking the worker.
func (e *Engine) attackGroup(m inference.Method, g *anonymize.Group, priors []prob.Dist, sc *attackScratch, gi, bi int, crit privacy.Criterion) groupAttack {
	gp, hits := sc.classPriors(g, gi, priors), sc.hits[sc.off[gi]:sc.off[gi+1]]
	lo, hi := sc.block(bi, gi)
	risks, same := sc.gains[lo:hi], sc.same[lo:hi]
	posts, err := privacy.ClassGains(m, e.Measure, gp, sc.counts(gi), risks, same, math.Inf(-1))
	if err != nil {
		return groupAttack{err: err}
	}
	ga := groupAttack{risks: risks}
	for i, risk := range risks {
		hit := risk > crit.Gain
		if crit.Breach != nil {
			if j := same[i]; j != i {
				hit = hits[j]
			} else {
				hit = crit.Breach(gp[i], posts[i])
			}
			hits[i] = hit
		}
		if hit {
			ga.vulnerable++
		}
		if risk > ga.worst {
			ga.worst = risk
		}
	}
	return ga
}

// attackScratch is one attack's working memory. Class gi owns rows
// [off[gi], off[gi+1]) of the row-indexed slices (gains and same hold
// one row block per bandwidth) and hist[gi*m:(gi+1)*m]; classes are
// disjoint, so concurrent tasks never share a cell.
type attackScratch struct {
	off    []int
	m      int
	priors []prob.Dist
	same   []int
	hits   []bool
	hist   []int
	gains  []float64
}

func newAttackScratch(res *anonymize.Result, m, bandwidths int) *attackScratch {
	off := make([]int, len(res.Groups)+1)
	for gi, g := range res.Groups {
		off[gi+1] = off[gi] + g.Size()
	}
	rows := off[len(res.Groups)]
	return &attackScratch{
		off:    off,
		m:      m,
		priors: make([]prob.Dist, rows),
		same:   make([]int, bandwidths*rows),
		hits:   make([]bool, rows),
		hist:   make([]int, len(res.Groups)*m),
		gains:  make([]float64, bandwidths*rows),
	}
}

// counts is class gi's sensitive histogram.
func (a *attackScratch) counts(gi int) []int { return a.hist[gi*a.m : (gi+1)*a.m] }

// block is class gi's cells [lo, hi) of gains and same at bandwidth bi.
func (a *attackScratch) block(bi, gi int) (lo, hi int) {
	base := bi * a.off[len(a.off)-1]
	return base + a.off[gi], base + a.off[gi+1]
}

// classPriors fills class gi's prior cells with its tuples' priors
// from one bandwidth's per-record priors.
func (a *attackScratch) classPriors(g *anonymize.Group, gi int, priors []prob.Dist) []prob.Dist {
	gp := a.priors[a.off[gi]:a.off[gi+1]]
	for i, ri := range g.Rows {
		gp[i] = priors[ri]
	}
	return gp
}

// reduceAttack assembles one bandwidth's report from per-class results
// in group order — the attack's deterministic fan-in. The first
// per-class error in group order wins, so the reported failure is the
// same at any worker count.
func (e *Engine) reduceAttack(res *anonymize.Result, perGroup []groupAttack) (*AttackReport, error) {
	rep := &AttackReport{Risks: make([]float64, e.Table.N())}
	for gi, g := range res.Groups {
		ga := perGroup[gi]
		if ga.err != nil {
			return nil, fmt.Errorf("core: group of %d tuples: %w", g.Size(), ga.err)
		}
		for i, ri := range g.Rows {
			rep.Risks[ri] = ga.risks[i]
		}
		rep.Vulnerable += ga.vulnerable
		if ga.worst > rep.WorstRisk {
			rep.WorstRisk = ga.worst
		}
	}
	return rep, nil
}

// AttackSweepWith runs AttackWith for a whole grid of adversary
// bandwidths against one release; AttackWith itself is the one-point
// sweep. Each bandwidth's priors come through the same cache Priors
// uses. The fan-out runs one task per equivalence class: the task
// decodes the class's sensitive multiset once and evaluates it at every
// bandwidth. The judge's criterion is resolved per bandwidth. out[i] is
// bit-identical to AttackWith(ctx, m, res, bvecs[i], t, judge) at any
// worker count. m overrides the engine's inference method as in
// AttackWith; one inference span covers the whole dispatch.
func (e *Engine) AttackSweepWith(ctx context.Context, m inference.Method, res *anonymize.Result, bvecs [][]float64, t float64, judge privacy.Judge) ([]*AttackReport, error) {
	return e.attackSweepSpan(obs.SpanFromContext(ctx), m, res, bvecs, t, judge)
}

// attackSweepSpan is the span-threaded sweep behind every attack entry
// point; m overrides the engine's inference method when non-nil.
func (e *Engine) attackSweepSpan(sp *obs.Span, m inference.Method, res *anonymize.Result, bvecs [][]float64, t float64, judge privacy.Judge) ([]*AttackReport, error) {
	if len(bvecs) == 0 {
		return nil, nil
	}
	method := e.methodOr(m)
	priorsByB, err := e.sweepPriors(sp, bvecs)
	if err != nil {
		return nil, err
	}
	crits := make([]privacy.Criterion, len(bvecs))
	for i, b := range bvecs {
		crits[i] = privacy.Criterion{Gain: t}
		if judge != nil {
			crits[i] = judge.Criterion(b)
		}
	}
	nb, ng := len(bvecs), len(res.Groups)
	isp := e.passSpan(sp, method, false, res, nb)
	// One task per class: its sensitive multiset is bandwidth-invariant,
	// so the task decodes it once and evaluates every bandwidth.
	// perGroup[bi*ng+gi] is class gi at bandwidth bi.
	perGroup := make([]groupAttack, nb*ng)
	sc := newAttackScratch(res, e.Table.Schema.M(), nb)
	parallel.For(e.Workers(), ng, func(gi int) {
		g := res.Groups[gi]
		e.Table.CountSensitive(sc.counts(gi), g.Rows)
		for bi, priors := range priorsByB {
			perGroup[bi*ng+gi] = e.attackGroup(method, g, priors, sc, gi, bi, crits[bi])
		}
	})
	reports := make([]*AttackReport, nb)
	for bi := range reports {
		rep, err := e.reduceAttack(res, perGroup[bi*ng:(bi+1)*ng])
		if err != nil {
			isp.End()
			return nil, err
		}
		reports[bi] = rep
	}
	isp.End()
	return reports, nil
}

// sweepPriors returns each grid bandwidth's per-record priors, through
// the cache Priors uses.
func (e *Engine) sweepPriors(sp *obs.Span, bvecs [][]float64) ([][]prob.Dist, error) {
	priorsByB := make([][]prob.Dist, len(bvecs))
	for i, b := range bvecs {
		priors, err := e.priorsSpan(sp, b)
		if err != nil {
			return nil, err
		}
		priorsByB[i] = priors
	}
	return priorsByB, nil
}

// passSpan opens the one stage span of an attack or risk pass over res
// at nb bandwidths, priced by InferenceStage.
func (e *Engine) passSpan(sp *obs.Span, method inference.Method, risk bool, res *anonymize.Result, nb int) *obs.Span {
	kind := "inference "
	if risk {
		kind = "risk "
	}
	psp := sp.Child(InferenceStage(method.Name(), risk), kind+method.Name())
	psp.SetShape(obs.Shape{
		Rows:   e.Table.N(),
		Dims:   e.Table.Schema.D(),
		Lanes:  nb,
		Groups: len(res.Groups),
	})
	return psp
}

// WorstCaseRiskSweep returns the worst-case disclosure risk
// max(0, max_q D[Ppri(B',q), Ppos(B',q,T*)]) of the released table at
// each bandwidth of the grid: Figure 3's quantity and POST /v1/risk's.
// out[i] is bit for bit AttackSweepWith(ctx, m, res, bvecs, t, judge)[i].WorstRisk,
// and it fails as that does (the first class a method refuses, in
// bandwidth then group order), but it measures exactly only the
// distinct (prior, posterior) pairs whose log-free bounds
// (distance.Bounded) can reach the maximum. Per bandwidth:
//
//  1. every class's posteriors, and every pair's bound at floor +Inf,
//     which smooths neither side;
//  2. the pair with the largest bound, the first in group order on a
//     tie, measured exactly: its gain is the floor;
//  3. every other pair whose bound exceeds the floor, again through
//     distance.Bounded, now at the floor: the bound on the smoothed
//     pair settles most of them, and the rest are measured exactly;
//  4. the largest gain.
//
// A pair whose bound is at most the floor cannot exceed it, so the
// maximum is unchanged. The floor is fixed before step 3, so the pairs
// measured exactly depend only on the inputs, never on scheduling. m
// and the span are as in AttackSweepWith; the pass is priced under its
// own risk stage.
func (e *Engine) WorstCaseRiskSweep(ctx context.Context, m inference.Method, res *anonymize.Result, bvecs [][]float64) ([]float64, error) {
	worst, _, err := e.riskSweep(obs.SpanFromContext(ctx), m, res, bvecs)
	return worst, err
}

// riskSweep is WorstCaseRiskSweep, also counting the pairs whose exact
// gain it took: the floor pair and every pair measured above the floor.
func (e *Engine) riskSweep(sp *obs.Span, m inference.Method, res *anonymize.Result, bvecs [][]float64) (worst []float64, exact int, err error) {
	if len(bvecs) == 0 {
		return nil, 0, nil
	}
	method := e.methodOr(m)
	priorsByB, err := e.sweepPriors(sp, bvecs)
	if err != nil {
		return nil, 0, err
	}
	nb, ng := len(bvecs), len(res.Groups)
	rsp := e.passSpan(sp, method, true, res, nb)
	defer rsp.End()
	sc := newAttackScratch(res, e.Table.Schema.M(), nb)
	// posts[bi*ng+gi] is class gi's posteriors at bandwidth bi.
	posts := make([][]prob.Dist, nb*ng)
	errs := make([]error, nb*ng)
	parallel.For(e.Workers(), ng, func(gi int) {
		g := res.Groups[gi]
		e.Table.CountSensitive(sc.counts(gi), g.Rows)
		for bi, priors := range priorsByB {
			lo, hi := sc.block(bi, gi)
			gp := sc.classPriors(g, gi, priors)
			posts[bi*ng+gi], errs[bi*ng+gi] = privacy.ClassGains(method, e.Measure, gp, sc.counts(gi), sc.gains[lo:hi], sc.same[lo:hi], math.Inf(1))
		}
	})
	// Steps 2–4 run in group order; they measure few pairs.
	worst = make([]float64, nb)
	for bi := range worst {
		pair := func(gi, i int) (prob.Dist, prob.Dist) {
			return priorsByB[bi][res.Groups[gi].Rows[i]], posts[bi*ng+gi][i]
		}
		top, tg, ti := math.Inf(-1), -1, -1
		for gi, g := range res.Groups {
			if err := errs[bi*ng+gi]; err != nil {
				return nil, 0, fmt.Errorf("core: group of %d tuples: %w", g.Size(), err)
			}
			lo, hi := sc.block(bi, gi)
			for c := lo; c < hi; c++ {
				if sc.same[c] == c-lo && sc.gains[c] > top {
					top, tg, ti = sc.gains[c], gi, c-lo
				}
			}
		}
		if tg < 0 {
			continue
		}
		lo, _ := sc.block(bi, tg)
		floor := e.Measure.Distance(pair(tg, ti))
		exact++
		sc.gains[lo+ti] = floor
		for gi := range res.Groups {
			lo, hi := sc.block(bi, gi)
			for c := lo; c < hi; c++ {
				if sc.same[c] != c-lo {
					continue
				}
				if sc.gains[c] > floor {
					prior, post := pair(gi, c-lo)
					if sc.gains[c] = distance.Bounded(e.Measure, prior, post, floor); sc.gains[c] > floor {
						exact++
					}
				}
				if sc.gains[c] > worst[bi] {
					worst[bi] = sc.gains[c]
				}
			}
		}
	}
	return worst, exact, nil
}
