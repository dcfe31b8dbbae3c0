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
	"sort"
	"sync"

	"repro/internal/anatomy"
	"repro/internal/anonymize"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/hierarchy"
	"repro/internal/incognito"
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
)

var modelNames = map[Model]string{
	DistinctLDiversity:      "distinct-l-diversity",
	ProbabilisticLDiversity: "probabilistic-l-diversity",
	TCloseness:              "t-closeness",
	BTPrivacy:               "(B,t)-privacy",
}

func (m Model) String() string { return modelNames[m] }

// AllModels lists the four models in the paper's reporting order.
func AllModels() []Model {
	return []Model{DistinctLDiversity, ProbabilisticLDiversity, TCloseness, BTPrivacy}
}

// ParseModel maps the CLI/API model names (distinct, prob, tclose, bt)
// to the Model enum. The composite "skyline" requirement is not a
// Model; callers that accept it use RequirementByName.
func ParseModel(name string) (Model, bool) {
	switch name {
	case "distinct":
		return DistinctLDiversity, true
	case "prob":
		return ProbabilisticLDiversity, true
	case "tclose":
		return TCloseness, true
	case "bt":
		return BTPrivacy, true
	default:
		return 0, false
	}
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
// matrix, disclosure measure, prior cache, and model construction.
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

	mu     sync.Mutex
	priors map[string]*priorEntry
}

// priorEntry is a singleflight cache slot: concurrent callers for the
// same bandwidth block on one computation instead of duplicating it.
type priorEntry struct {
	once   sync.Once
	priors []prob.Dist
	err    error
}

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
		priors:     map[string]*priorEntry{},
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
// and prior pass land as stage spans under sp. Because the cache slot
// is a singleflight, only the computing caller records spans — later
// and concurrent callers attach nothing, so shared work is attributed
// exactly once (to whoever actually ran it).
func (e *Engine) priorsSpan(sp *obs.Span, b []float64) ([]prob.Dist, error) {
	key := kernel.BandwidthKey(b)
	e.mu.Lock()
	entry, ok := e.priors[key]
	if !ok {
		entry = &priorEntry{}
		e.priors[key] = entry
	}
	e.mu.Unlock()
	entry.once.Do(func() {
		entry.priors, entry.err = e.Estimator.PriorsSpan(sp, b)
	})
	return entry.priors, entry.err
}

// UniformPriors is Priors with the uniform bandwidth vector (b,…,b).
func (e *Engine) UniformPriors(b float64) ([]prob.Dist, error) {
	return e.Priors(kernel.UniformBandwidth(e.Table.Schema.D(), b))
}

// Requirement builds the composed requirement (model ∧ K-anonymity)
// for a parameter set, as the evaluation enforces (§V).
func (e *Engine) Requirement(m Model, p Params) (privacy.Requirement, error) {
	return e.requirementSpan(nil, nil, m, p)
}

// requirementSpan is Requirement with a recorder: the (B,t) model runs
// a prior pass during construction, which the span attributes. method
// overrides the engine's inference method inside (B,t) checks when
// non-nil (nil everywhere except the serving layer's release-level
// override).
func (e *Engine) requirementSpan(sp *obs.Span, method inference.Method, m Model, p Params) (privacy.Requirement, error) {
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
	case BTPrivacy:
		bt, err := e.btRequirementSpan(sp, method, p)
		if err != nil {
			return nil, err
		}
		attr = bt
	default:
		return nil, fmt.Errorf("core: unknown model %d", int(m))
	}
	return privacy.And{Parts: []privacy.Requirement{privacy.KAnonymity{K: p.K}, attr}}, nil
}

// RequirementByName builds the composed requirement for a CLI/API
// model name: distinct, prob, tclose, bt, or skyline. The skyline
// variant enforces the fixed three-entry (B_i, t_i) ladder around the
// requested (B, t) that the binaries expose: {(0.2, t), (B, t),
// (0.5, t+0.05)}, composed with K-anonymity.
func (e *Engine) RequirementByName(name string, p Params) (privacy.Requirement, error) {
	return e.requirementByNameSpan(nil, nil, name, p)
}

// requirementByNameSpan is RequirementByName with a recorder and an
// optional inference-method override for the (B,t) checks.
func (e *Engine) requirementByNameSpan(sp *obs.Span, method inference.Method, name string, p Params) (privacy.Requirement, error) {
	if name == "skyline" {
		return e.skylineRequirementSpan(sp, method, p.K, []Params{
			{B: 0.2, T: p.T},
			{B: p.B, T: p.T},
			{B: 0.5, T: p.T + 0.05},
		})
	}
	m, ok := ParseModel(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown model %q", name)
	}
	return e.requirementSpan(sp, method, m, p)
}

// BTRequirement builds the bare (B,t) requirement for a parameter set.
func (e *Engine) BTRequirement(p Params) (privacy.BTPrivacy, error) {
	return e.btRequirementSpan(nil, nil, p)
}

// btRequirementSpan is BTRequirement with a recorder for its prior
// pass and an optional inference-method override.
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
		Label:   "B=" + kernel.BandwidthKey(bvec),
	}, nil
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
// partitioning subtrees on the engine's worker pool.
func (e *Engine) Anonymize(req privacy.Requirement) *anonymize.Result {
	return e.anonymizeSpan(nil, req)
}

// anonymizeSpan is Anonymize with a recorder: the whole recursion lands
// as one mondrian stage span under sp.
func (e *Engine) anonymizeSpan(sp *obs.Span, req privacy.Requirement) *anonymize.Result {
	p := &mondrian.Partitioner{Table: e.Table, Req: req, Workers: e.Workers(), Span: sp}
	return p.Anonymize()
}

// AnonymizeModel anonymizes under (model ∧ k-anonymity) for params p.
func (e *Engine) AnonymizeModel(m Model, p Params) (*anonymize.Result, error) {
	req, err := e.Requirement(m, p)
	if err != nil {
		return nil, err
	}
	return e.Anonymize(req), nil
}

// RunAlgorithm is the shared dispatch for the CLI and the serving
// layer: it runs the named algorithm (mondrian, anatomy, incognito)
// under the named model (see RequirementByName) and validates the
// release. The levels return is Incognito's minimal generalization
// node (nil for the other algorithms). Anatomy enforces ℓ-diversity by
// construction and uses only p.L.
func (e *Engine) RunAlgorithm(algo, model string, p Params) (res *anonymize.Result, levels []int, err error) {
	return e.runAlgorithm(nil, nil, algo, model, p)
}

// RunAlgorithmWith is RunAlgorithm under a traced request, with a
// per-release inference method for the (B,t) breach checks the
// pipeline runs (nil = engine default). The pipeline's stages (prior
// passes, partitioning, anatomy, incognito search) are recorded as
// children of the context's span; a context without one runs
// identically with zero recording overhead. Exact is rejected at the
// request layer for releases — Mondrian's initial group is the whole
// table, far past any exact bound — so only Ω and adaptive reach here.
func (e *Engine) RunAlgorithmWith(ctx context.Context, m inference.Method, algo, model string, p Params) (res *anonymize.Result, levels []int, err error) {
	return e.runAlgorithm(obs.SpanFromContext(ctx), m, algo, model, p)
}

// runAlgorithm is the span-threaded dispatch behind the entry points.
func (e *Engine) runAlgorithm(sp *obs.Span, method inference.Method, algo, model string, p Params) (res *anonymize.Result, levels []int, err error) {
	switch algo {
	case "anatomy":
		asp := sp.StartStage(obs.StageAnatomy)
		asp.SetShape(obs.Shape{Rows: e.Table.N(), Dims: e.Table.Schema.D()})
		res, err = anatomy.Anatomize(e.Table, p.L)
		asp.End()
		if err != nil {
			return nil, nil, err
		}
	case "incognito":
		ladders, lerr := incognito.Ladders(e.Table.Schema, e.Hiers)
		if lerr != nil {
			return nil, nil, lerr
		}
		req, rerr := e.requirementByNameSpan(sp, method, model, p)
		if rerr != nil {
			return nil, nil, rerr
		}
		g := &incognito.Generalizer{Table: e.Table, Ladders: ladders, Req: req}
		isp := sp.StartStage(obs.StageIncognito)
		isp.SetShape(obs.Shape{Rows: e.Table.N(), Dims: e.Table.Schema.D()})
		levels, res, err = g.Search()
		isp.End()
		if err != nil {
			return nil, nil, err
		}
	case "mondrian":
		req, rerr := e.requirementByNameSpan(sp, method, model, p)
		if rerr != nil {
			return nil, nil, rerr
		}
		res = e.anonymizeSpan(sp, req)
	default:
		return nil, nil, fmt.Errorf("core: unknown algorithm %q", algo)
	}
	if err := res.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: invalid release: %w", err)
	}
	return res, levels, nil
}

// Breach decides whether one record's privacy — as promised by a
// particular privacy model — fails given the adversary's prior and
// posterior beliefs about it. A nil Breach is the (B,t) criterion:
// the knowledge gain D[prior, posterior] — which Attack computes for
// its risk report anyway — exceeds the attack's t threshold, with no
// second measure evaluation.
type Breach func(prior, post prob.Dist) bool

// BreachTest returns the vulnerability criterion of a privacy model,
// following the paper's Figure 1 protocol: a tuple is vulnerable when
// the adversary's posterior violates the guarantee the model claims.
//   - ℓ-diversity models: the adversary pins a value with probability
//     above 1/ℓ — the "well-represented" promise fails.
//   - t-closeness: the release moves the adversary's belief by more
//     than t in EMD — the model's own distance — so the breach counts
//     release-caused drift, not pre-existing prior deviation.
//   - (B,t)-privacy: the knowledge gain D[prior, posterior] exceeds t.
//     This is Attack's nil-breach criterion — BreachTest returns nil so
//     the attack reuses the gain it already computed instead of running
//     the smoothed measure twice per record. (Every attack entry point
//     passes p.T as its threshold, so the semantics are unchanged.)
func (e *Engine) BreachTest(m Model, p Params) Breach {
	switch m {
	case DistinctLDiversity, ProbabilisticLDiversity:
		bound := 1 / float64(p.L)
		return func(_, post prob.Dist) bool {
			mx, _ := post.Max()
			return mx > bound+prob.Epsilon
		}
	case TCloseness:
		return func(prior, post prob.Dist) bool {
			return distance.EMD(prior, post, e.SensMatrix) > p.T
		}
	default: // BTPrivacy and skyline entries
		return nil
	}
}

// AttackReport summarizes a probabilistic background-knowledge attack
// by adversary Adv(B') against a released table (§V-A).
type AttackReport struct {
	// Risks is the per-record knowledge gain D[prior, posterior].
	Risks []float64
	// Vulnerable counts records breached under the release's own
	// privacy criterion (see BreachTest).
	Vulnerable int
	// WorstRisk is the maximum gain — the worst-case disclosure risk.
	WorstRisk float64
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

// Attack computes the posterior belief of adversary Adv(bvec) for every
// record of the released table, records the knowledge gains, and counts
// breaches under the given criterion. A nil breach counts records whose
// knowledge gain exceeds t.
//
// Equivalence classes are evaluated concurrently on the engine's
// worker pool. Each class's inference and measurement is
// self-contained and the reduction runs in group order, so the report
// is bit-identical to the sequential path at any worker count.
func (e *Engine) Attack(res *anonymize.Result, bvec []float64, t float64, breach Breach) (*AttackReport, error) {
	return e.attackSpan(nil, nil, res, bvec, t, breach)
}

// AttackWith is Attack under a traced request — the prior pass and the
// inference fan-out land as stage spans on the context's span — with a
// per-call inference method, the request-level override the serving
// layer threads through. A nil method uses the engine's default. Exact
// refuses oversized groups with inference.ErrTooLarge (first failing
// group in group order) instead of degrading silently.
func (e *Engine) AttackWith(ctx context.Context, m inference.Method, res *anonymize.Result, bvec []float64, t float64, breach Breach) (*AttackReport, error) {
	return e.attackSpan(obs.SpanFromContext(ctx), m, res, bvec, t, breach)
}

// methodOr resolves a per-call method override against the engine
// default.
func (e *Engine) methodOr(m inference.Method) inference.Method {
	if m == nil {
		return e.Method
	}
	return m
}

// inferenceStage maps an inference method to its stage label, so the
// cost model fits exact and adaptive traffic separately from the
// Ω-estimate they diverge from (~49× per Figure 2's measurement).
func inferenceStage(m inference.Method) obs.Stage {
	switch m.Name() {
	case inference.NameExact:
		return obs.StageInferenceExact
	case inference.NameAdaptive:
		return obs.StageInferenceAdaptive
	}
	return obs.StageInference
}

// attackSpan is the span-threaded attack behind the attack entry
// points; m overrides the engine's inference method when non-nil.
func (e *Engine) attackSpan(sp *obs.Span, m inference.Method, res *anonymize.Result, bvec []float64, t float64, breach Breach) (*AttackReport, error) {
	method := e.methodOr(m)
	priors, err := e.priorsSpan(sp, bvec)
	if err != nil {
		return nil, err
	}
	isp := sp.Child(inferenceStage(method), "inference "+method.Name())
	isp.SetShape(obs.Shape{
		Rows:   e.Table.N(),
		Dims:   e.Table.Schema.D(),
		Lanes:  1,
		Groups: len(res.Groups),
	})
	perGroup := parallel.Map(e.Workers(), len(res.Groups), func(gi int) groupAttack {
		g := res.Groups[gi]
		return e.attackGroup(method, g, priors, e.groupCounts(g), breach, t)
	})
	rep, err := e.reduceAttack(res, perGroup)
	isp.End()
	return rep, err
}

// groupCounts is one class's sensitive multiset — bandwidth-invariant,
// so sweeps compute it once per class and share it across the grid.
func (e *Engine) groupCounts(g *anonymize.Group) []int {
	svals := make([]int, g.Size())
	for i, ri := range g.Rows {
		svals[i] = e.Table.Records[ri].S
	}
	return inference.GroupCounts(svals, e.Table.Schema.M())
}

// attackGroup evaluates one equivalence class: posterior inference
// over its tuples, per-record knowledge gains, and the breach count
// (the computed gain against t when breach is nil). It is
// self-contained — shared by Attack and AttackSweep — so any fan-out
// over (bandwidth, group) pairs stays bit-identical to the sequential
// path. A method that refuses the group (Exact on an oversized class)
// records its error for the ordered fan-in instead of panicking the
// worker.
func (e *Engine) attackGroup(m inference.Method, g *anonymize.Group, priors []prob.Dist, counts []int, breach Breach, t float64) groupAttack {
	gp := make([]prob.Dist, g.Size())
	for i, ri := range g.Rows {
		gp[i] = priors[ri]
	}
	posts, err := inference.TryPosteriors(m, gp, counts)
	if err != nil {
		return groupAttack{err: err}
	}
	ga := groupAttack{risks: make([]float64, g.Size())}
	for i := range g.Rows {
		risk := e.Measure.Distance(gp[i], posts[i])
		ga.risks[i] = risk
		if breach == nil {
			if risk > t {
				ga.vulnerable++
			}
		} else if breach(gp[i], posts[i]) {
			ga.vulnerable++
		}
		if risk > ga.worst {
			ga.worst = risk
		}
	}
	return ga
}

// reduceAttack assembles a report from per-class results in group
// order — the deterministic fan-in both attack entry points share.
// The first per-class error in group order wins, so the reported
// failure is the same at any worker count.
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

// AttackSweep runs Attack for a whole grid of adversary bandwidths
// against one release. Each bandwidth's priors come through the same
// cache slot Priors uses; the sweep amortizes the group decode, hoisted
// out of the loop, and dispatches every (bandwidth, class) pair in one
// parallel fan-out instead of one per bandwidth.
// out[i] is bit-identical to Attack(res, bvecs[i], t, breach) at any
// worker count.
func (e *Engine) AttackSweep(res *anonymize.Result, bvecs [][]float64, t float64, breach Breach) ([]*AttackReport, error) {
	return e.attackSweepSpan(nil, nil, res, bvecs, t, breach)
}

// AttackSweepWith is AttackSweep under a traced request, with a
// per-call inference method (see AttackWith); a nil method uses the
// engine's default. One inference span covers the whole dispatch.
func (e *Engine) AttackSweepWith(ctx context.Context, m inference.Method, res *anonymize.Result, bvecs [][]float64, t float64, breach Breach) ([]*AttackReport, error) {
	return e.attackSweepSpan(obs.SpanFromContext(ctx), m, res, bvecs, t, breach)
}

// attackSweepSpan is the span-threaded sweep behind the sweep entry
// points; m overrides the engine's inference method when non-nil.
func (e *Engine) attackSweepSpan(sp *obs.Span, m inference.Method, res *anonymize.Result, bvecs [][]float64, t float64, breach Breach) ([]*AttackReport, error) {
	if len(bvecs) == 0 {
		return nil, nil
	}
	method := e.methodOr(m)
	priorsByB := make([][]prob.Dist, len(bvecs))
	for i, b := range bvecs {
		priors, err := e.priorsSpan(sp, b)
		if err != nil {
			return nil, err
		}
		priorsByB[i] = priors
	}
	nb, ng := len(bvecs), len(res.Groups)
	// The sensitive multisets are bandwidth-invariant: decode each
	// class once for the whole grid.
	counts := make([][]int, ng)
	for gi, g := range res.Groups {
		counts[gi] = e.groupCounts(g)
	}
	isp := sp.Child(inferenceStage(method), "inference sweep "+method.Name())
	isp.SetShape(obs.Shape{
		Rows:   e.Table.N(),
		Dims:   e.Table.Schema.D(),
		Lanes:  nb,
		Groups: ng,
	})
	perGroup := parallel.Map(e.Workers(), nb*ng, func(i int) groupAttack {
		return e.attackGroup(method, res.Groups[i%ng], priorsByB[i/ng], counts[i%ng], breach, t)
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

// WorstCaseRiskSweep is WorstCaseRisk over a bandwidth grid in one
// amortized sweep — the per-curve form of Figure 3's quantity.
func (e *Engine) WorstCaseRiskSweep(res *anonymize.Result, bvecs [][]float64) ([]float64, error) {
	reps, err := e.AttackSweep(res, bvecs, 1, nil)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(reps))
	for i, rep := range reps {
		out[i] = rep.WorstRisk
	}
	return out, nil
}

// WorstCaseRisk returns max_q D[Ppri(B',q), Ppos(B',q,T*)] for the
// released table, the quantity of Figure 3.
func (e *Engine) WorstCaseRisk(res *anonymize.Result, bvec []float64) (float64, error) {
	rep, err := e.Attack(res, bvec, 1, nil)
	if err != nil {
		return 0, err
	}
	return rep.WorstRisk, nil
}

// SortedRisks returns the attack risks in decreasing order; useful for
// risk-profile reporting.
func SortedRisks(rep *AttackReport) []float64 {
	out := append([]float64(nil), rep.Risks...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}
