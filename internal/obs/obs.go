// Package obs is the serving layer's observability substrate:
// request-scoped traces (a span tree per request or job), per-stage
// duration/count histograms (the /metrics "stages" ledger), and a
// bounded ring of recent traces (GET /debug/traces). It is stdlib-only
// and allocation-disciplined: a span is one small struct, histograms
// are fixed atomic arrays, and the whole layer degrades to no-ops on a
// nil receiver, so instrumented code paths carry no conditionals and
// no cost when tracing is off.
//
// Determinism boundary: obs is the one package in the tree sanctioned
// to read the ambient clock (see cmd/detlint's nondetsource scoping
// table). Everything it measures flows only into metrics, logs, and
// the debug ring — never into content-addressed ids or response
// bodies — so releases stay byte-identical with tracing on or off.
// Compute packages receive spans by injection (a context or a struct
// field) and call their methods; they never read clocks themselves.
package obs

import (
	"context"
	"sync"
	"time"
)

// now is the package's single wall-clock read — the one sanctioned
// ambient-time source in the module. Every span start and duration
// derives from it, and none of those values feed id derivation.
func now() time.Time {
	//lint:ignore nondetsource obs is the sanctioned timing package: spans and stage histograms measure wall time for metrics and debugging only, never for id derivation
	return time.Now()
}

// Stage labels the pipeline phases the stages ledger aggregates. The
// taxonomy is deliberately coarse — one span per pass, not per
// recursive call — so instrumentation stays out of the hot loops.
type Stage int

const (
	// StageNone marks structural spans (request roots, pipeline
	// wrappers) that group children without contributing to the ledger.
	StageNone Stage = iota
	// StageDatasetSynth is schema-driven synthesis of a table.
	StageDatasetSynth
	// StageDatasetDecode is streaming CSV decode plus domain checks.
	StageDatasetDecode
	// StageEngineBuild is core.New: estimator packing, distance
	// matrices, the per-dataset setup the service amortizes.
	StageEngineBuild
	// StageMondrian is one full Mondrian partitioning recursion.
	StageMondrian
	// StageAnatomy is one anatomy bucketization pass.
	StageAnatomy
	// StageIncognito is one incognito lattice search.
	StageIncognito
	// StageKernelTable is one per-bandwidth flat weight-table build,
	// run by the prior pass that uses it.
	StageKernelTable
	// StagePriors is one single-bandwidth Nadaraya–Watson prior pass
	// over the profile×profile space.
	StagePriors
	// StageInference is one posterior-inference + disclosure-measure
	// pass over all equivalence classes of an attack or sweep.
	StageInference
	// StagePersistRead is one durable-tier load (dataset rebuild or
	// release reconstitution).
	StagePersistRead
	// StagePersistWrite is one durable-tier write-through.
	StagePersistWrite
	// StageInferenceExact is an inference pass under the request-level
	// "exact" method override — priced separately from the Ω default,
	// whose per-group cost it exceeds by orders of magnitude.
	StageInferenceExact
	// StageInferenceAdaptive is an inference pass under the "adaptive"
	// override (exact below the state bound, Ω above it).
	StageInferenceAdaptive

	numStages
)

var stageNames = [numStages]string{
	StageNone:          "",
	StageDatasetSynth:  "dataset_synth",
	StageDatasetDecode: "dataset_decode",
	StageEngineBuild:   "engine_build",
	StageMondrian:      "mondrian",
	StageAnatomy:       "anatomy",
	StageIncognito:     "incognito",
	StageKernelTable:   "kernel_table",
	StagePriors:        "priors",
	StageInference:     "inference",
	StagePersistRead:   "persist_read",
	StagePersistWrite:  "persist_write",

	StageInferenceExact:    "inference_exact",
	StageInferenceAdaptive: "inference_adaptive",
}

func (st Stage) String() string {
	if st < 0 || st >= numStages {
		return "unknown"
	}
	return stageNames[st]
}

// Shape describes the workload a stage span operated on, in the units
// the closed-form cost models are written in (internal/costmodel):
// table rows, deduplicated QI profiles, QI dimensionality d, the
// bandwidth-grid width of a pass (lanes: 1 for a prior pass, the grid
// size for a sweep's inference pass), and the equivalence-class count
// of an inference pass. A zero
// Shape means "unannotated" and is kept out of the calibration
// reservoirs. Shapes describe work, never content — they carry counts,
// not data — so they are safe to expose on every diagnostic surface.
type Shape struct {
	Rows     int `json:"rows,omitempty"`
	Profiles int `json:"profiles,omitempty"`
	Dims     int `json:"dims,omitempty"`
	Lanes    int `json:"lanes,omitempty"`
	Groups   int `json:"groups,omitempty"`
}

// IsZero reports whether the shape carries no annotation.
func (sh Shape) IsZero() bool { return sh == Shape{} }

// Span is one timed node of a trace. The zero of usefulness is nil: a
// nil *Span accepts every method as a no-op and hands out nil
// children, so instrumented code never branches on "is tracing on".
// Children may be attached from concurrent goroutines (singleflight
// leaders, worker pools); the parent's mutex orders the appends.
type Span struct {
	name  string
	stage Stage
	start time.Time
	// dur is set once by End; reads happen only after the owning
	// trace finishes (ring admission), so no atomics are needed.
	dur time.Duration
	// shape is set (at most once, by the owning goroutine) before End
	// and read only at/after End — same ownership discipline as dur.
	shape Shape
	// stages, when non-nil, receives this span's duration under its
	// stage at End.
	stages *Stages

	mu       sync.Mutex
	children []*Span
	outcome  string
}

// newSpan starts a span now.
func newSpan(stage Stage, name string, stages *Stages) *Span {
	return &Span{name: name, stage: stage, start: now(), stages: stages}
}

// Child starts a sub-span. StageNone children are structural;
// stage-bearing children also feed the stages ledger when they end.
// On a nil receiver it returns nil, keeping the whole subtree free.
func (s *Span) Child(stage Stage, name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(stage, name, s.stages)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// StartStage is Child with the stage's own name — the common case for
// pipeline phases.
func (s *Span) StartStage(stage Stage) *Span {
	return s.Child(stage, stage.String())
}

// SetShape annotates the span with the workload shape its stage
// operated on; the shape rides the ledger observation End records, so
// the per-stage reservoirs hold (shape, duration) pairs the cost model
// can fit. Call before End, from the goroutine that owns the span.
// No-op on nil.
func (s *Span) SetShape(sh Shape) {
	if s == nil {
		return
	}
	s.shape = sh
}

// Shape returns the annotation set by SetShape (zero when unset or on
// a nil span). Like Duration, it is meaningful only after End.
func (s *Span) Shape() Shape {
	if s == nil {
		return Shape{}
	}
	return s.shape
}

// End closes the span, recording its duration (and, for stage-bearing
// spans, one ledger observation — shaped when the span was annotated).
// No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur = now().Sub(s.start)
	if s.stage != StageNone && s.stages != nil {
		s.stages.ObserveShaped(s.stage, s.shape, s.dur)
	}
}

// SetOutcome annotates the span (handlers record the cache outcome of
// the request here; the request logger and trace views read it back).
func (s *Span) SetOutcome(outcome string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.outcome = outcome
	s.mu.Unlock()
}

// Outcome returns the annotation set by SetOutcome ("" when unset or
// on a nil span).
func (s *Span) Outcome() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outcome
}

// Duration returns the span's recorded duration (zero before End or
// on a nil span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// ctxKey carries the current span through a request's context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying the span; pipeline
// layers recover it with SpanFromContext to attach their stage spans.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the context's span, or nil when the request
// is untraced — and nil is a fully functional no-op recorder, so
// callers use the result unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
