package service

import (
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// stageShape is one (stage, workload shape) pair a request would run
// on its cold path — the unit the cost model prices.
type stageShape struct {
	st obs.Stage
	sh obs.Shape
}

// anonymizeShapes lists the cold-path stages of an anonymize request:
// the algorithm's partitioning pass over the full table, plus the
// release write-through when a durable tier is configured. Requirement
// derivation and response assembly are unstaged noise by design.
func (s *Server) anonymizeShapes(ds *datasetEntry, algo string) []stageShape {
	n, d := ds.table.N(), ds.table.Schema.D()
	var st obs.Stage
	switch algo {
	case "anatomy":
		st = obs.StageAnatomy
	case "incognito":
		st = obs.StageIncognito
	default:
		st = obs.StageMondrian
	}
	out := []stageShape{{st, obs.Shape{Rows: n, Dims: d}}}
	if s.disk != nil {
		out = append(out, stageShape{obs.StagePersistWrite, obs.Shape{Rows: n}})
	}
	return out
}

// attackShapes lists the cold-path stages of an attack/risk request
// over a lanes-wide bandwidth grid: one kernel-table build and one
// prior pass per bandwidth, one inference pass priced under the
// request's method — each method fits its own coefficients, since
// exact is orders of magnitude costlier per row than the Ω default.
// The engine caches priors per bandwidth, so a warm request spends far
// less than this — the explain residual shows exactly how much the
// cache saved.
func attackShapes(entry *releaseEntry, lanes int, method string) []stageShape {
	profiles := len(entry.ds.engine.Estimator.Profiles())
	n, d := entry.ds.table.N(), entry.ds.table.Schema.D()
	groups := len(entry.res.Groups)
	out := make([]stageShape, 0, 2*lanes+1)
	for i := 0; i < lanes; i++ {
		out = append(out,
			stageShape{obs.StageKernelTable, obs.Shape{Profiles: profiles, Dims: d}},
			stageShape{obs.StagePriors, obs.Shape{Profiles: profiles, Dims: d, Lanes: 1}},
		)
	}
	return append(out, stageShape{inferenceStageFor(method), obs.Shape{Rows: n, Dims: d, Lanes: lanes, Groups: groups}})
}

// inferenceStageFor maps a (canonicalized) method name to the ledger
// stage its passes are recorded — and priced — under.
func inferenceStageFor(method string) obs.Stage {
	switch method {
	case "exact":
		return obs.StageInferenceExact
	case "adaptive":
		return obs.StageInferenceAdaptive
	}
	return obs.StageInference
}

// price evaluates the cost model over a request's stage list, in list
// order (deterministic — no map iteration). Stages without calibration
// samples land in uncalibrated rather than silently pricing at zero.
func (s *Server) price(shapes []stageShape) (total float64, preds []StagePrediction, uncal []string) {
	for _, ss := range shapes {
		us, fit, ok := s.cost.Predict(ss.st, ss.sh)
		if !ok {
			uncal = append(uncal, ss.st.String())
			continue
		}
		total += us
		preds = append(preds, StagePrediction{
			Stage:        ss.st.String(),
			Shape:        ss.sh,
			Formula:      fit.Formula,
			PredictedUS:  us,
			R2:           fit.R2,
			MedAbsRelErr: fit.MedAbsRelErr,
			Samples:      fit.Samples,
		})
	}
	return total, preds, uncal
}

// explain assembles the opt-in cost block for a finished request:
// the priced cold path next to the actual per-stage spend recovered
// from the request's own span tree. Cache hits and singleflight
// followers have little or no actual spend — that asymmetry is the
// point of the block, not an error.
func (s *Server) explain(sp *obs.Span, shapes []stageShape) *ExplainBlock {
	total, preds, uncal := s.price(shapes)
	actual := obs.Breakdown(sp)
	var actualUS float64
	for _, st := range actual {
		actualUS += st.Seconds * 1e6
	}
	return &ExplainBlock{
		PredictedUS:  total,
		ActualUS:     actualUS,
		ResidualUS:   actualUS - total,
		Predicted:    preds,
		Actual:       actual,
		Uncalibrated: uncal,
	}
}

// wantExplain reports the request's opt-in, accepting both the body
// field and the ?explain=1 query form.
func wantExplain(r *http.Request, body bool) bool {
	return body || r.URL.Query().Get("explain") == "1"
}

// handleEstimate prices a hypothetical request without running it:
//
//	GET /v1/estimate?op=anonymize&dataset={id}&algo=mondrian
//	GET /v1/estimate?op=attack&release={id}&bprimes=0.1,0.3&inference=adaptive
//
// (op=risk is an alias for attack — both run the same pipeline). The
// response carries per-stage predictions with fit quality; stages the
// model has no calibration samples for are listed as uncalibrated, so
// a zero estimate on a cold server is distinguishable from "free".
// Resolving the named artifacts may touch the durable tier, but no
// pipeline, prior, or inference work runs.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	op := q.Get("op")
	var shapes []stageShape
	switch op {
	case "anonymize":
		dsRef := q.Get("dataset")
		if dsRef == "" {
			writeErr(w, http.StatusBadRequest, "op=anonymize needs dataset={id}")
			return
		}
		algo := q.Get("algo")
		if algo == "" {
			algo = "mondrian"
		}
		switch algo {
		case "mondrian", "anatomy", "incognito":
		default:
			writeErr(w, http.StatusBadRequest, "unknown algo %q (want mondrian|anatomy|incognito)", algo)
			return
		}
		ds, ok := s.getDataset(obs.SpanFromContext(r.Context()), dsRef)
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown dataset %q", dsRef)
			return
		}
		shapes = s.anonymizeShapes(ds, algo)
	case "attack", "risk":
		relRef := q.Get("release")
		if relRef == "" {
			writeErr(w, http.StatusBadRequest, "op=%s needs release={id}", op)
			return
		}
		inf := q.Get("inference")
		if inf == "omega" {
			inf = ""
		}
		switch inf {
		case "", "exact", "adaptive":
		default:
			writeErr(w, http.StatusBadRequest, "unknown inference %q (want omega|exact|adaptive)", inf)
			return
		}
		lanes := 1
		if raw := q.Get("bprimes"); raw != "" {
			points := strings.Split(raw, ",")
			if len(points) > MaxSweepPoints {
				writeErr(w, http.StatusBadRequest, "bprimes has %d points (max %d)", len(points), MaxSweepPoints)
				return
			}
			for _, p := range points {
				if _, err := strconv.ParseFloat(p, 64); err != nil {
					writeErr(w, http.StatusBadRequest, "bad bprimes entry %q", p)
					return
				}
			}
			lanes = len(points)
		}
		entry, ok := s.resolveRelease(r.Context(), relRef)
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown release %q", relRef)
			return
		}
		shapes = attackShapes(entry, lanes, inf)
	default:
		writeErr(w, http.StatusBadRequest, "op must be anonymize|attack|risk (got %q)", op)
		return
	}
	total, preds, uncal := s.price(shapes)
	writeJSON(w, http.StatusOK, EstimateResponse{
		Op:           op,
		PredictedUS:  total,
		Stages:       preds,
		Uncalibrated: uncal,
	})
}
