// Package costmodel fits the engine's closed-form per-stage cost
// models against the shaped duration reservoirs the obs ledger records
// (internal/obs, Stages.Samples). The paper's dominant costs are
// predictable in closed form — a prior pass is O(profiles² · d) scaled
// by bandwidth support (§III kernel estimation), Mondrian is
// O(n·log n·d) — so each stage gets a one-term work formula w(shape)
// and the model fitted online is
//
//	duration_µs ≈ A·w(shape) + B
//
// by ordinary least squares over the stage's reservoir. The fit is
// fully deterministic: samples are consumed in reservoir (insertion)
// order, the closed-form slope/intercept solution involves no
// iteration, and quality statistics (R², median absolute relative
// error) sort scratch copies with a total order. The package reads no
// clock and no randomness — calibration is a pure function of the
// observation window — which keeps it inside detlint's nondetsource
// scope.
//
// Consumers: GET /metrics exposes the fitted coefficients and quality
// per stage (the "cost_model" section), GET /v1/estimate prices a
// hypothetical request by evaluating A·w+B for the stages it would
// run, the opt-in explain block reports predicted-vs-actual per
// request, and the planned admission controller (ROADMAP item 2) will
// gate on the same Predict call.
package costmodel

import (
	"math"
	"sort"

	"repro/internal/obs"
)

// Form is one stage's closed-form work model: Feature computes the
// work term w(shape) the stage's duration is assumed linear in, and
// Formula is its human-readable spelling (for /metrics and docs).
type Form struct {
	Stage   obs.Stage
	Formula string
	Feature func(obs.Shape) float64
}

// forms is the per-stage closed-form table, in stage-enum order. The
// formulas follow DESIGN.md "Hot path layout" and the paper's
// asymptotics; stages without a principled work term (persistence is
// I/O-bound on artifact size, proxied by rows) get the best cheap
// proxy available from the shape.
var forms = []Form{
	{obs.StageDatasetSynth, "rows*d", func(s obs.Shape) float64 {
		return f(s.Rows) * f(s.Dims)
	}},
	{obs.StageDatasetDecode, "rows*d", func(s obs.Shape) float64 {
		return f(s.Rows) * f(s.Dims)
	}},
	{obs.StageEngineBuild, "rows*d", func(s obs.Shape) float64 {
		return f(s.Rows) * f(s.Dims)
	}},
	{obs.StageMondrian, "rows*log2(rows)*d", func(s obs.Shape) float64 {
		return f(s.Rows) * log2(s.Rows) * f(s.Dims)
	}},
	{obs.StageKernelTable, "profiles*d", func(s obs.Shape) float64 {
		return f(s.Profiles) * f(s.Dims)
	}},
	{obs.StagePriors, "profiles^2*d", func(s obs.Shape) float64 {
		return f(s.Profiles) * f(s.Profiles) * f(s.Dims)
	}},
	{obs.StageInference, "rows*lanes", func(s obs.Shape) float64 {
		return f(s.Rows) * lanes(s)
	}},
	// The request-level method overrides run the same per-row shape but
	// at very different constants (exact is ~49× Ω per Figure 2), so
	// each method fits its own coefficients instead of polluting the
	// Ω default's.
	{obs.StageInferenceExact, "rows*lanes", func(s obs.Shape) float64 {
		return f(s.Rows) * lanes(s)
	}},
	{obs.StageInferenceAdaptive, "rows*lanes", func(s obs.Shape) float64 {
		return f(s.Rows) * lanes(s)
	}},
	// A worst-case risk pass runs the same inference but measures few
	// pairs exactly, so each method's risk pass fits its own line too.
	{obs.StageRisk, "rows*lanes", func(s obs.Shape) float64 {
		return f(s.Rows) * lanes(s)
	}},
	{obs.StageRiskExact, "rows*lanes", func(s obs.Shape) float64 {
		return f(s.Rows) * lanes(s)
	}},
	{obs.StageRiskAdaptive, "rows*lanes", func(s obs.Shape) float64 {
		return f(s.Rows) * lanes(s)
	}},
	{obs.StagePersistRead, "rows", func(s obs.Shape) float64 {
		return f(s.Rows)
	}},
	{obs.StagePersistWrite, "rows", func(s obs.Shape) float64 {
		return f(s.Rows)
	}},
}

func f(n int) float64 { return float64(n) }

// lanes treats an unannotated grid width as a single-bandwidth pass.
func lanes(s obs.Shape) float64 {
	if s.Lanes < 1 {
		return 1
	}
	return float64(s.Lanes)
}

func log2(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// FormFor returns the stage's closed form (ok=false for stages without
// one, e.g. StageNone).
func FormFor(st obs.Stage) (Form, bool) {
	for _, fm := range forms {
		if fm.Stage == st {
			return fm, true
		}
	}
	return Form{}, false
}

// Fit is one stage's fitted model plus its quality statistics — the
// /metrics "cost_model" entry. A is µs per work unit, B the fixed µs
// overhead; R2 and MedAbsRelErr are computed in-sample over the
// reservoir window, so they are the rolling predicted-vs-actual error
// of the current model on current traffic.
type Fit struct {
	Formula      string  `json:"formula"`
	A            float64 `json:"a_us_per_unit"`
	B            float64 `json:"b_us"`
	R2           float64 `json:"r2"`
	MedAbsRelErr float64 `json:"med_abs_rel_err"`
	Samples      int     `json:"samples"`
}

// Predict evaluates the fitted model at a shape, clamped at zero.
func (ft Fit) Predict(form Form, sh obs.Shape) float64 {
	v := ft.A*form.Feature(sh) + ft.B
	if v < 0 {
		return 0
	}
	return v
}

// fitSamples runs the deterministic least-squares fit for one stage.
// Degenerate windows (no spread in the work term, or fewer than two
// samples) collapse to the intercept-only model B = mean duration; a
// negative fitted slope — physically meaningless for a cost — does the
// same, so Predict never decreases with workload size.
func fitSamples(samples []obs.ShapeSample, feature func(obs.Shape) float64) (fit Fit, ok bool) {
	xs := make([]float64, 0, len(samples))
	ys := make([]float64, 0, len(samples))
	for _, s := range samples {
		x := feature(s.Shape)
		if !(x >= 0) || math.IsInf(x, 0) || s.Micros <= 0 {
			continue
		}
		xs = append(xs, x)
		ys = append(ys, s.Micros)
	}
	n := len(xs)
	if n == 0 {
		return Fit{}, false
	}
	var sumX, sumY float64
	for i := 0; i < n; i++ {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/float64(n), sumY/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-meanX, ys[i]-meanY
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	a, b := 0.0, meanY
	if n >= 2 && sxx > 0 {
		a = sxy / sxx
		b = meanY - a*meanX
		if a < 0 {
			a, b = 0, meanY
		}
	}
	fit = Fit{A: a, B: b, Samples: n}
	// Quality: residuals of the fitted line over the same window.
	var ssRes float64
	relErrs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		pred := a*xs[i] + b
		if pred < 0 {
			pred = 0
		}
		r := ys[i] - pred
		ssRes += r * r
		relErrs = append(relErrs, math.Abs(r)/ys[i])
	}
	if syy > 0 {
		fit.R2 = 1 - ssRes/syy
		if fit.R2 < 0 {
			fit.R2 = 0
		}
	} else if ssRes == 0 {
		fit.R2 = 1
	}
	sort.Float64s(relErrs)
	fit.MedAbsRelErr = median(relErrs)
	return fit, true
}

// median of a sorted slice (0 for empty).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// Model calibrates against a live stage ledger. Fitting a stage is a
// handful of arithmetic over ≤ ReservoirCap samples, so Snapshot and
// Predict refit on demand rather than caching — the model is always
// the current window's. A nil *Model (tracing disabled) predicts
// nothing and snapshots empty.
type Model struct {
	stages *obs.Stages
}

// New binds a model to a ledger (which may be nil — the no-op form).
func New(stages *obs.Stages) *Model {
	return &Model{stages: stages}
}

// Snapshot fits every stage with calibration samples and returns the
// results keyed by stage name, for the /metrics "cost_model" section.
// Iteration over the fixed form table keeps the key set and the fits
// deterministic.
func (m *Model) Snapshot() map[string]Fit {
	out := map[string]Fit{}
	if m == nil || m.stages == nil {
		return out
	}
	for _, fm := range forms {
		fit, ok := fitSamples(m.stages.Samples(fm.Stage), fm.Feature)
		if !ok {
			continue
		}
		fit.Formula = fm.Formula
		out[fm.Stage.String()] = fit
	}
	return out
}

// Predict prices one stage pass at a shape: the fitted A·w(shape)+B in
// microseconds, plus the fit itself so callers can report quality
// alongside the number. ok is false when the stage has no closed form
// or no calibration samples yet.
func (m *Model) Predict(st obs.Stage, sh obs.Shape) (micros float64, fit Fit, ok bool) {
	if m == nil || m.stages == nil {
		return 0, Fit{}, false
	}
	fm, ok := FormFor(st)
	if !ok {
		return 0, Fit{}, false
	}
	fit, ok = fitSamples(m.stages.Samples(st), fm.Feature)
	if !ok {
		return 0, Fit{}, false
	}
	fit.Formula = fm.Formula
	return fit.Predict(fm, sh), fit, true
}
