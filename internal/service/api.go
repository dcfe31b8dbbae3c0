// Package service exposes the anonymize→infer→measure pipeline as a
// long-running HTTP/JSON API. Datasets are ingested (or synthesized)
// once and keep their engine — kernel estimator, prior cache, worker
// pool — warm across requests; anonymization results live in a
// content-addressed release store with LRU eviction and singleflight
// dedup of concurrent identical requests, so a client can hit the
// pipeline millions of times without paying the setup cost per call.
//
// Endpoints:
//
//	POST /v1/schemas         register a declarative dataset spec (JSON)
//	GET  /v1/schemas         list registered schemas
//	POST /v1/datasets        ingest CSV (text/csv, ?schema=ref) or synthesize by (n, seed, schema)
//	POST /v1/anonymize       anonymize a dataset, returning a release handle
//	                         ("async": true → 202 + job handle instead)
//	POST /v1/attack          background-knowledge attack against a release
//	                         ("bprimes": [..] → amortized bandwidth sweep)
//	POST /v1/risk            worst-case disclosure risk of a release
//	                         (accepts the same "bprimes" sweep form)
//	GET  /v1/estimate        price a hypothetical request from the
//	                         calibrated cost model without running it
//	GET  /v1/releases/{id}   release metadata
//	GET  /v1/jobs/{id}       async anonymize job status
//	GET  /healthz            liveness
//	GET  /metrics            counters, latency quantiles, stage ledger,
//	                         and fitted cost model (JSON;
//	                         ?format=prom → OpenMetrics text)
//
// The anonymize, attack, and risk endpoints accept an opt-in
// "explain": true field (or ?explain=1) that attaches a cost block —
// the model's predicted cold-path cost at the request's workload
// shape, the actual per-stage spend from the request's own trace, and
// the residual. Bodies without it are byte-identical to pre-explain
// responses.
//
// With a data directory configured (cmd/serve -data-dir), the server
// is durable: schemas, dataset manifests, and releases write through
// to a content-addressed on-disk tier, lookups fall through
// memory→disk→404, and a restarted server serves previously computed
// releases byte-identically without rerunning the pipeline.
//
// Schemas make the service multi-scenario: every dataset is decoded,
// synthesized, and engined under a registered spec (the built-in
// "adult" spec when none is named), so one server concurrently holds
// hospital, financial, and census workloads keyed apart by schema id.
//
// All computation runs on the bounded worker pool configured at server
// construction; responses are bit-identical at any pool size (the
// engine's determinism guarantee), which the tests assert end to end.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// DatasetRequest asks for a synthetic table under a registered schema
// (id or name; default "adult"). CSV ingestion uses the request body
// directly (Content-Type: text/csv, schema named by the ?schema=
// query parameter) instead.
type DatasetRequest struct {
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
	Schema string `json:"schema,omitempty"`
}

// DatasetResponse identifies an ingested dataset. Cached reports that
// the dataset (same content hash) was already resident.
type DatasetResponse struct {
	ID      string `json:"id"`
	Schema  string `json:"schema"`
	Records int    `json:"records"`
	Cached  bool   `json:"cached"`
}

// SchemaRegisterResponse acknowledges a spec registration. Existed
// reports that identical content was already registered (the id is
// content-addressed, so re-registering is idempotent).
type SchemaRegisterResponse struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Existed bool   `json:"existed"`
}

// SchemaInfo is one row of GET /v1/schemas.
type SchemaInfo struct {
	ID        string   `json:"id"`
	Name      string   `json:"name"`
	Doc       string   `json:"doc,omitempty"`
	QI        []string `json:"qi"`
	Sensitive string   `json:"sensitive"`
	Generator string   `json:"generator,omitempty"`
}

// SchemaListResponse is the GET /v1/schemas payload.
type SchemaListResponse struct {
	Schemas []SchemaInfo `json:"schemas"`
}

// AnonymizeRequest names a dataset and the algorithm, privacy model,
// and parameters of the release to build. Zero-valued fields take the
// documented defaults.
type AnonymizeRequest struct {
	Dataset string `json:"dataset"`
	// Algo: mondrian (default) | anatomy | incognito.
	Algo string `json:"algo"`
	// Model: distinct | prob | tclose | bt (default) | skyline.
	// Anatomy enforces ℓ-diversity by construction, so its default
	// model — used for breach criteria in later attacks — is distinct.
	Model string  `json:"model"`
	K     int     `json:"k"` // default 3
	L     int     `json:"l"` // default 3
	T     float64 `json:"t"` // default 0.25
	B     float64 `json:"b"` // default 0.3
	// Async submits the request as a background job: the response is a
	// 202 with a job handle instead of blocking until the pipeline
	// finishes. Async does not participate in the release key — a sync
	// and an async request for the same release share one computation.
	Async bool `json:"async,omitempty"`
	// Explain attaches the opt-in cost block (predicted vs actual stage
	// cost) to the response. Like Async it is transport, not content: it
	// never enters the release key or the persisted request, and with it
	// off the body is byte-identical to an unexplained request.
	Explain bool `json:"explain,omitempty"`
	// Inference selects the posterior-inference method for the (B,t)
	// breach checks the pipeline runs: "omega" (the default Ω-estimate)
	// or "adaptive" (exact below a state bound, Ω above). "exact" is
	// rejected for releases — Mondrian's first candidate group is the
	// whole table, far past any exact bound. "omega" canonicalizes to
	// the empty default, so the release key (and therefore the release
	// id and persisted artifact) of default-method requests is unchanged.
	Inference string `json:"inference,omitempty"`
	// MaxStates overrides the adaptive method's exact-inference state
	// bound (default inference.MaxExactStates); ignored otherwise.
	MaxStates int `json:"max_states,omitempty"`
}

// normalize applies defaults in place.
func (r *AnonymizeRequest) normalize() {
	if r.Algo == "" {
		r.Algo = "mondrian"
	}
	if r.Model == "" {
		if r.Algo == "anatomy" {
			r.Model = "distinct"
		} else {
			r.Model = "bt"
		}
	}
	if r.K == 0 {
		r.K = 3
	}
	if r.L == 0 {
		r.L = 3
	}
	if r.T == 0 {
		r.T = 0.25
	}
	if r.B == 0 {
		r.B = 0.3
	}
	// "omega" is the default spelled out: canonicalize so both forms
	// share one release key.
	if r.Inference == "omega" {
		r.Inference = ""
	}
	if r.Inference != "adaptive" {
		r.MaxStates = 0
	}
}

// validate rejects out-of-range or unknown fields after normalize.
func (r *AnonymizeRequest) validate() error {
	switch r.Algo {
	case "mondrian", "anatomy", "incognito":
	default:
		return fmt.Errorf("unknown algo %q (want mondrian|anatomy|incognito)", r.Algo)
	}
	switch r.Model {
	case "distinct", "prob", "tclose", "bt", "skyline":
	default:
		return fmt.Errorf("unknown model %q (want distinct|prob|tclose|bt|skyline)", r.Model)
	}
	if r.K < 1 || r.L < 1 {
		return fmt.Errorf("k and l must be >= 1 (got k=%d, l=%d)", r.K, r.L)
	}
	if r.T <= 0 || r.T > 1 {
		return fmt.Errorf("t must be in (0, 1] (got %g)", r.T)
	}
	if r.B <= 0 || r.B > 1 {
		return fmt.Errorf("b must be in (0, 1] (got %g)", r.B)
	}
	switch r.Inference {
	case "", "adaptive":
	case "exact":
		return fmt.Errorf("inference %q is not available for releases (the pipeline checks table-sized groups); use adaptive", r.Inference)
	default:
		return fmt.Errorf("unknown inference %q (want omega|adaptive)", r.Inference)
	}
	if r.MaxStates < 0 {
		return fmt.Errorf("max_states must be >= 0 (got %d)", r.MaxStates)
	}
	return nil
}

// key is the canonical cache key of the release this request denotes:
// every field that affects the released groups, in a fixed order and
// rendering. Requests that differ only in JSON formatting, field
// order, or defaulted-vs-explicit values map to the same key.
// Non-default inference selections append to the key; the default
// (Ω) appends nothing, so pre-existing release ids — and the persisted
// artifacts integrity-checked against them — are untouched.
func (r *AnonymizeRequest) key() string {
	k := strings.Join([]string{
		r.Dataset, r.Algo, r.Model,
		"k=" + strconv.Itoa(r.K),
		"l=" + strconv.Itoa(r.L),
		"t=" + strconv.FormatFloat(r.T, 'g', -1, 64),
		"b=" + strconv.FormatFloat(r.B, 'g', -1, 64),
	}, "|")
	return k + inferenceKeySuffix(r.Inference, r.MaxStates)
}

// inferenceKeySuffix renders a method selection for cache keys —
// release keys, attack/sweep singleflight keys — as a suffix that is
// empty for the default method, keeping default keys (and the ids
// hashed from them) identical to the pre-inference-selection era.
func inferenceKeySuffix(name string, maxStates int) string {
	if name == "" {
		return ""
	}
	s := "|inference=" + name
	if maxStates > 0 {
		s += "|max_states=" + strconv.Itoa(maxStates)
	}
	return s
}

// AnonymizeResponse is the release handle plus summary statistics.
type AnonymizeResponse struct {
	Release     string  `json:"release"`
	Dataset     string  `json:"dataset"`
	Cached      bool    `json:"cached"`
	Algorithm   string  `json:"algorithm"`
	Requirement string  `json:"requirement"`
	Groups      int     `json:"groups"`
	Records     int     `json:"records"`
	AvgGroup    float64 `json:"avg_group"`
	Seconds     float64 `json:"seconds"`
	// Explain is the opt-in cost block ("explain": true or ?explain=1);
	// omitted by default so the body stays byte-identical.
	Explain *ExplainBlock `json:"explain,omitempty"`
}

// AttackRequest simulates adversary Adv(b') against a stored release.
// BPrime is a pointer so that an explicitly supplied 0 — outside the
// valid (0, 1] range — is distinguishable from an omitted field and is
// rejected rather than silently replaced by the default. BPrimes is
// the sweep form: a grid of adversary bandwidths evaluated in one
// amortized pass (core.Engine.AttackSweep), returning per-bandwidth
// results in one response. Exactly one of the two forms may be used.
type AttackRequest struct {
	Release string    `json:"release"`
	BPrime  *float64  `json:"bprime"`            // default 0.3 when omitted
	BPrimes []float64 `json:"bprimes,omitempty"` // sweep form, max MaxSweepPoints
	// Explain attaches the opt-in cost block to the response (the
	// ?explain=1 query form is equivalent). Transport, not content.
	Explain bool `json:"explain,omitempty"`
	// Inference selects the posterior-inference method for this attack:
	// "omega" (default), "exact" (refuses oversized groups with a 422),
	// or "adaptive" — the documented recommendation for large groups
	// (exact answers where affordable, Ω elsewhere). The selection is
	// part of the attack's cache identity: mixed-method traffic against
	// one release never shares results.
	Inference string `json:"inference,omitempty"`
	// MaxStates overrides the adaptive state bound (see AnonymizeRequest).
	MaxStates int `json:"max_states,omitempty"`
}

// normalizeInference canonicalizes the attack/risk method selection:
// "omega" is the default spelled out, and max_states is meaningful
// only for adaptive.
func (r *AttackRequest) normalizeInference() {
	if r.Inference == "omega" {
		r.Inference = ""
	}
	if r.Inference != "adaptive" {
		r.MaxStates = 0
	}
}

// validateInference rejects unknown methods after normalizeInference.
func (r *AttackRequest) validateInference() error {
	switch r.Inference {
	case "", "exact", "adaptive":
	default:
		return fmt.Errorf("unknown inference %q (want omega|exact|adaptive)", r.Inference)
	}
	if r.MaxStates < 0 {
		return fmt.Errorf("max_states must be >= 0 (got %d)", r.MaxStates)
	}
	return nil
}

// MaxSweepPoints caps the bprimes grid of one attack/risk request: each
// point pays its own prior pass (when uncached) and posterior
// inference, so an unbounded grid would be a cheap way to pin the
// pool.
const MaxSweepPoints = 64

// AttackSweepResponse is the bprimes form of POST /v1/attack: one
// AttackResponse per requested bandwidth, in request order.
type AttackSweepResponse struct {
	Release string           `json:"release"`
	Sweep   []AttackResponse `json:"sweep"`
	Explain *ExplainBlock    `json:"explain,omitempty"`
}

// RiskSweepResponse is the bprimes form of POST /v1/risk.
type RiskSweepResponse struct {
	Release string         `json:"release"`
	Sweep   []RiskResponse `json:"sweep"`
	Explain *ExplainBlock  `json:"explain,omitempty"`
}

// AttackResponse reports the attack outcome: breach count under the
// release's own privacy criterion and the risk profile quantiles.
type AttackResponse struct {
	Release    string  `json:"release"`
	BPrime     float64 `json:"bprime"`
	Records    int     `json:"records"`
	Vulnerable int     `json:"vulnerable"`
	MeanRisk   float64 `json:"mean_risk"`
	P50Risk    float64 `json:"p50_risk"`
	P90Risk    float64 `json:"p90_risk"`
	P99Risk    float64 `json:"p99_risk"`
	WorstRisk  float64 `json:"worst_risk"`
	// Inference echoes a non-default method selection; omitted for the
	// Ω default, so default bodies are byte-identical to earlier
	// releases of the API.
	Inference string `json:"inference,omitempty"`
	// Explain is the opt-in cost block. Per-request: computeAttack's
	// singleflight shares the value fields, never this pointer.
	Explain *ExplainBlock `json:"explain,omitempty"`
}

// RiskResponse is the worst-case disclosure risk (Figure 3 quantity).
type RiskResponse struct {
	Release   string        `json:"release"`
	BPrime    float64       `json:"bprime"`
	WorstRisk float64       `json:"worst_risk"`
	Inference string        `json:"inference,omitempty"`
	Explain   *ExplainBlock `json:"explain,omitempty"`
}

// StagePrediction is one stage's priced entry in an explain block or
// estimate: the fitted model evaluated at the request's workload shape,
// with the fit quality so readers can judge how much to trust it.
type StagePrediction struct {
	Stage        string    `json:"stage"`
	Shape        obs.Shape `json:"shape"`
	Formula      string    `json:"formula"`
	PredictedUS  float64   `json:"predicted_us"`
	R2           float64   `json:"r2"`
	MedAbsRelErr float64   `json:"med_abs_rel_err"`
	Samples      int       `json:"samples"`
}

// ExplainBlock is the opt-in cost annotation on anonymize/attack/risk
// responses: what the calibrated cost model predicted the request's
// cold-path stages would cost, what this request actually spent per
// stage (from its own trace — empty when the work was served from a
// cache or another request's in-flight computation), and the residual.
// A large negative residual on a cached response is the cache working;
// a large positive residual on a miss is the model mispricing the
// shape, and shows up in /metrics cost_model med_abs_rel_err too.
type ExplainBlock struct {
	PredictedUS float64           `json:"predicted_us"`
	ActualUS    float64           `json:"actual_us"`
	ResidualUS  float64           `json:"residual_us"`
	Predicted   []StagePrediction `json:"predicted,omitempty"`
	Actual      []obs.StageTiming `json:"actual,omitempty"`
	// Uncalibrated lists stages the request would run for which the
	// model has no samples yet (their cost is missing from PredictedUS).
	Uncalibrated []string `json:"uncalibrated,omitempty"`
}

// EstimateResponse is the GET /v1/estimate payload: the priced
// cold-path cost of a hypothetical request, computed purely from the
// calibrated cost model and the named artifacts' shapes — nothing is
// run. The same pricing feeds explain blocks, so estimate-then-run
// residuals are directly comparable.
type EstimateResponse struct {
	Op           string            `json:"op"`
	PredictedUS  float64           `json:"predicted_us"`
	Stages       []StagePrediction `json:"stages,omitempty"`
	Uncalibrated []string          `json:"uncalibrated,omitempty"`
}

// ReleaseInfo is the GET /v1/releases/{id} payload.
type ReleaseInfo struct {
	ID          string  `json:"id"`
	Dataset     string  `json:"dataset"`
	Schema      string  `json:"schema"`
	Algorithm   string  `json:"algorithm"`
	Requirement string  `json:"requirement"`
	Model       string  `json:"model"`
	K           int     `json:"k"`
	L           int     `json:"l"`
	T           float64 `json:"t"`
	B           float64 `json:"b"`
	Groups      int     `json:"groups"`
	Records     int     `json:"records"`
	AvgGroup    float64 `json:"avg_group"`
	Seconds     float64 `json:"seconds"`
	// Stages is the pipeline's per-stage timing breakdown, present only
	// with ?stages=1 and only when this process ran the pipeline under
	// tracing. It is diagnostic metadata, not release content: omitted
	// by default so the body stays byte-identical across restarts.
	Stages []obs.StageTiming `json:"stages,omitempty"`
}

// JobResponse describes an async anonymize job: the 202 body at
// submission and the GET /v1/jobs/{id} payload while polling. Release
// is the content-addressed handle the job will (or did) produce —
// known at submission time, resolvable via GET /v1/releases/{id} once
// State is "done". Deduped reports that the submission collapsed into
// an already queued or running identical job.
type JobResponse struct {
	Job           string  `json:"job"`
	State         string  `json:"state"` // queued | running | done | failed
	Release       string  `json:"release"`
	Dataset       string  `json:"dataset"`
	Deduped       bool    `json:"deduped,omitempty"`
	Error         string  `json:"error,omitempty"`
	QueuedSeconds float64 `json:"queued_seconds,omitempty"`
	RunSeconds    float64 `json:"run_seconds,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// hashID derives a content-addressed identifier from a canonical key.
func hashID(prefix, key string) string {
	sum := sha256.Sum256([]byte(key))
	return prefix + "_" + hex.EncodeToString(sum[:8])
}
