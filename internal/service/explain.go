package service

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// stageShape is one (stage, workload shape) pair a request would run
// on its cold path — the unit the cost model prices.
type stageShape struct {
	st obs.Stage
	sh obs.Shape
}

// anonymizeShapes lists the cold-path stages of a resolved anonymize
// request. The requirement derivation runs first: a release under
// (B,t) builds one kernel table and runs one prior pass at B, under
// skyline one per distinct ladder bandwidth (the other models run
// none). Then comes Mondrian's partitioning pass over the full table,
// plus the release write-through when a durable tier is configured.
// Response assembly is unstaged noise by design.
func (s *Server) anonymizeShapes(op anonymizeOp) []stageShape {
	ds, req := op.ds, &op.req
	n, d := ds.table.N(), ds.table.Schema.D()
	var bandwidths []float64
	switch m, _ := core.ParseModel(req.Model); m {
	case core.BTPrivacy:
		bandwidths = []float64{req.B}
	case core.Skyline:
		for _, p := range core.SkylineLadder(core.Params{B: req.B, T: req.T}) {
			bandwidths = append(bandwidths, p.B)
		}
	}
	var out []stageShape
	profiles := len(ds.engine.Estimator.Profiles())
	for range normalizeGrid(bandwidths) {
		out = append(out,
			stageShape{obs.StageKernelTable, obs.Shape{Profiles: profiles, Dims: d}},
			stageShape{obs.StagePriors, obs.Shape{Profiles: profiles, Dims: d}},
		)
	}
	out = append(out, stageShape{obs.StageMondrian, obs.Shape{Rows: n, Dims: d}})
	if s.disk != nil {
		out = append(out, stageShape{obs.StagePersistWrite, obs.Shape{Rows: n}})
	}
	return out
}

// attackShapes lists the cold-path stages of a resolved attack/risk
// request over its grid, one lane per distinct bandwidth: one
// kernel-table build and one prior pass per lane, then one pass priced
// under the request's method and kind (core.InferenceStage) — each
// method fits its own coefficients, since exact is orders of magnitude
// costlier per row than the Ω default, and a risk pass, which measures
// few pairs exactly, fits its own apart from an attack's.
// The engine caches priors per bandwidth, so a warm request spends far
// less than this — the explain residual shows exactly how much the
// cache saved.
func attackShapes(op attackOp) []stageShape {
	entry, lanes := op.entry, len(normalizeGrid(op.bprimes))
	profiles := len(entry.ds.engine.Estimator.Profiles())
	n, d := entry.ds.table.N(), entry.ds.table.Schema.D()
	groups := len(entry.res.Groups)
	out := make([]stageShape, 0, 2*lanes+1)
	for i := 0; i < lanes; i++ {
		out = append(out,
			stageShape{obs.StageKernelTable, obs.Shape{Profiles: profiles, Dims: d}},
			stageShape{obs.StagePriors, obs.Shape{Profiles: profiles, Dims: d}},
		)
	}
	return append(out, stageShape{core.InferenceStage(op.sel.Inference, op.risk), obs.Shape{Rows: n, Dims: d, Lanes: lanes, Groups: groups}})
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
//	GET /v1/estimate?op=anonymize&dataset={id}&algo=mondrian&model=skyline&b=0.3
//	GET /v1/estimate?op=attack&release={id}&bprimes=0.1,0.3&inference=adaptive
//
// op=risk takes attack's fields and is priced as the risk pass it runs,
// under its own stage. The query names the fields of the operation's
// own request body — op=anonymize: dataset, algo, model, k, l, t, b,
// inference, max_states; op=attack and op=risk: release, bprime,
// bprimes (comma-separated), inference, max_states — and the request
// they fill takes the
// handler's own resolve path (resolveAnonymize, resolveAttack): the
// same defaults, validation, and lookup. The response carries
// per-stage predictions with fit quality; stages the model has no
// calibration samples for are listed as uncalibrated, so a zero
// estimate on a cold server is distinguishable from "free". Resolving
// the named artifacts may touch the durable tier, but no pipeline,
// prior, or inference work runs.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	op := q.Get("op")
	var shapes []stageShape
	switch op {
	case "anonymize":
		var req AnonymizeRequest
		if !fromQuery(w, q, op, "dataset",
			queryField{"dataset", &req.Dataset}, queryField{"algo", &req.Algo}, queryField{"model", &req.Model},
			queryField{"k", &req.K}, queryField{"l", &req.L}, queryField{"t", &req.T}, queryField{"b", &req.B},
			queryField{"inference", &req.Inference}, queryField{"max_states", &req.MaxStates}) {
			return
		}
		a, ok := s.resolveAnonymize(w, r, req)
		if !ok {
			return
		}
		shapes = s.anonymizeShapes(a)
	case "attack", "risk":
		var req AttackRequest
		if !fromQuery(w, q, op, "release",
			queryField{"release", &req.Release}, queryField{"bprime", &req.BPrime}, queryField{"bprimes", &req.BPrimes},
			queryField{"inference", &req.Inference}, queryField{"max_states", &req.MaxStates}) {
			return
		}
		a, ok := s.resolveAttack(w, r, req, op == "risk")
		if !ok {
			return
		}
		shapes = attackShapes(a)
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

// queryField binds one estimate query field to the request-struct field
// of the same JSON name: *string, *int, *float64, **float64 (a pointer
// field, set only when present) or *[]float64 (comma-separated).
type queryField struct {
	name string
	dst  any
}

// fromQuery fills the bound request fields from the query, writing a
// 400 when the required field is absent or a value does not parse. An
// absent or empty field keeps its zero value, which the request's
// normalize defaults as it does an omitted JSON field.
func fromQuery(w http.ResponseWriter, q url.Values, op, required string, fields ...queryField) bool {
	if q.Get(required) == "" {
		writeErr(w, http.StatusBadRequest, "op=%s needs %s={id}", op, required)
		return false
	}
	for _, f := range fields {
		raw := q.Get(f.name)
		if raw == "" {
			continue
		}
		var err error
		switch dst := f.dst.(type) {
		case *string:
			*dst = raw
		case *int:
			*dst, err = strconv.Atoi(raw)
		case *float64:
			*dst, err = strconv.ParseFloat(raw, 64)
		case **float64:
			v, perr := strconv.ParseFloat(raw, 64)
			*dst, err = &v, perr
		case *[]float64:
			for _, p := range strings.Split(raw, ",") {
				v, perr := strconv.ParseFloat(p, 64)
				if perr != nil {
					writeErr(w, http.StatusBadRequest, "bad %s entry %q", f.name, p)
					return false
				}
				*dst = append(*dst, v)
			}
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad %s %q", f.name, raw)
			return false
		}
	}
	return true
}
