package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/adult"
	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/schema"
)

// Config sizes the server. Zero values take the stated defaults.
type Config struct {
	// Workers bounds the shared pool every engine runs on
	// (0 = all cores, negative = sequential; the package-wide
	// convention). All responses are bit-identical at any setting.
	Workers int
	// ReleaseCap is the release store's LRU capacity (default 128).
	ReleaseCap int
	// DatasetCap is the dataset store's LRU capacity (default 8).
	// Datasets are far heavier than releases: each holds a table, a
	// kernel estimator, and a prior cache.
	DatasetCap int
	// MaxUploadBytes caps CSV ingestion bodies (default 64 MiB).
	MaxUploadBytes int64
	// MaxSyntheticN caps synthetic table sizes (default 1,000,000).
	MaxSyntheticN int
	// DataDir, when non-empty, enables the durable tier: schemas,
	// dataset manifests, and releases write through to
	// content-addressed files under this directory, lookups fall
	// through memory→disk→404, and a fresh server on the same
	// directory recovers previous work without rerunning the pipeline.
	DataDir string
	// JobWorkers sizes the async-anonymize worker pool (default 2;
	// negative = 1). Each worker runs one pipeline at a time — the
	// pipelines parallelize internally on the engine pool.
	JobWorkers int
	// JobQueueDepth bounds the async job queue (default 128).
	// Submissions beyond the bound are rejected with 503.
	JobQueueDepth int
	// DisableTracing turns the observability substrate off: no traces,
	// no stage ledger, no debug ring. Responses are byte-identical
	// either way (the determinism tests pin this); tracing is on by
	// default because its cost is a handful of clock reads per request.
	DisableTracing bool
	// TraceRing bounds the recent-trace ring GET /debug/traces serves
	// (default 128).
	TraceRing int
	// SlowTraceMillis is the default min_ms filter of /debug/traces:
	// only traces at least this slow are listed unless the query
	// overrides it (default 0 — keep everything).
	SlowTraceMillis int
	// Logger, when set, receives one structured line per request
	// (request id, endpoint, status, duration, cache outcome). Nil
	// disables request logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ReleaseCap == 0 {
		c.ReleaseCap = 128
	}
	if c.DatasetCap == 0 {
		c.DatasetCap = 8
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxSyntheticN == 0 {
		c.MaxSyntheticN = 1_000_000
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = 2
	}
	if c.JobWorkers < 0 {
		c.JobWorkers = 1
	}
	if c.JobQueueDepth == 0 {
		c.JobQueueDepth = 128
	}
	if c.TraceRing == 0 {
		c.TraceRing = 128
	}
	return c
}

// datasetEntry is one resident dataset: the table plus its warm
// engine (kernel estimator, prior cache, worker pool) and the schema
// it was ingested under.
type datasetEntry struct {
	id       string
	schemaID string
	table    *dataset.Table
	engine   *core.Engine
}

// releaseEntry is one resident release: the anonymization result plus
// everything attacks need (the owning dataset entry keeps the engine
// alive even if the dataset store later evicts it).
type releaseEntry struct {
	id  string
	ds  *datasetEntry
	res *anonymize.Result
	req AnonymizeRequest
	// breachModel is the criterion later attacks test the release
	// against: the release's own model (skyline breaches like bt).
	breachModel core.Model
	seconds     float64
	// stages is the pipeline's per-stage breakdown, captured when this
	// process ran the pipeline under tracing (nil for disk-recovered
	// entries and untraced servers). Served only behind ?stages=1 and
	// never persisted, so release bodies stay byte-identical across
	// restarts and tracing settings.
	stages []obs.StageTiming
}

// Server is the HTTP serving layer. Construct with New; it implements
// http.Handler.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *Metrics
	// tracer mints per-request traces and owns the stage ledger and
	// debug ring; nil when Config.DisableTracing, which turns every
	// span into a no-op.
	tracer *obs.Tracer
	// cost fits per-stage cost models against the tracer's shaped
	// reservoirs; with tracing disabled it predicts nothing (estimate
	// and explain degrade to uncalibrated, never to errors).
	cost   *costmodel.Model
	logger *slog.Logger

	schemas  *schema.Registry
	datasets *lruStore[*datasetEntry]
	releases *lruStore[*releaseEntry]

	// disk is the durable tier (nil when Config.DataDir is empty).
	disk *diskStore
	// jobs is the async-anonymize queue drained by the job workers.
	jobs *jobQueue

	// attacks dedups concurrent identical attack/risk computations.
	// Results are not memoized — the release store already pins the
	// expensive artifact — so repeated sequential attacks recompute on
	// the warm engine.
	attacks parallel.Group[*AttackResponse]
	// sweeps dedups concurrent identical bandwidth sweeps, keyed on the
	// normalized (sorted, deduplicated) grid so permutations of the
	// same bprimes collapse into one amortized pass.
	sweeps parallel.Group[map[float64]*AttackResponse]
	// dsRecover and relRecover dedup concurrent disk recoveries so a
	// thundering herd after a restart rebuilds each engine once.
	dsRecover  parallel.Group[*datasetEntry]
	relRecover parallel.Group[*releaseEntry]
}

// New builds a server with the given configuration. The schema
// registry starts with the built-in "adult" spec plus — when a data
// directory is configured — every spec persisted by a previous
// process; more specs arrive over POST /v1/schemas or are preloaded at
// boot via RegisterSchema (cmd/serve -schema).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		metrics:  newMetrics(),
		logger:   cfg.Logger,
		schemas:  schema.NewRegistry(),
		datasets: newLRUStore[*datasetEntry](cfg.DatasetCap),
		releases: newLRUStore[*releaseEntry](cfg.ReleaseCap),
		jobs:     newJobQueue(cfg.JobQueueDepth),
	}
	if !cfg.DisableTracing {
		s.tracer = obs.NewTracer(cfg.TraceRing)
	}
	s.cost = costmodel.New(s.tracer.Stages())
	s.schemas.MustRegister(adult.Spec())
	s.releases.onEvict = func(string) { s.metrics.StoreEvictions.Add(1) }
	if cfg.DataDir != "" {
		disk, err := newDiskStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		s.disk = disk
		if err := s.replaySchemas(); err != nil {
			return nil, err
		}
	}
	s.startJobWorkers(cfg.JobWorkers)
	s.route("/v1/schemas", methods{
		http.MethodPost: s.handleSchemaRegister,
		http.MethodGet:  s.handleSchemaList,
	})
	s.route("/v1/datasets", methods{http.MethodPost: s.handleDatasets})
	s.route("/v1/anonymize", methods{http.MethodPost: s.handleAnonymize})
	s.route("/v1/attack", methods{http.MethodPost: s.handleAttack})
	s.route("/v1/risk", methods{http.MethodPost: s.handleRisk})
	s.route("/v1/estimate", methods{http.MethodGet: s.handleEstimate})
	s.route("/v1/releases/", methods{http.MethodGet: s.handleRelease})
	s.route("/v1/jobs/", methods{http.MethodGet: s.handleJob})
	s.route("/healthz", methods{http.MethodGet: s.handleHealthz})
	s.route("/metrics", methods{http.MethodGet: s.handleMetrics})
	return s, nil
}

// replaySchemas re-registers every persisted spec at boot. A document
// that no longer parses or validates is skipped (counted as a persist
// error) rather than failing the boot: the server still starts, and
// datasets under the broken schema degrade to not-found.
func (s *Server) replaySchemas() error {
	docs, err := s.disk.loadSchemas()
	if err != nil {
		return fmt.Errorf("service: replaying persisted schemas: %w", err)
	}
	// Replay in sorted id order: registration is first-writer-wins per
	// schema name, so map-order iteration would make boot state depend
	// on the iteration seed whenever two persisted specs collide.
	ids := make([]string, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, _, err := s.schemas.Import(docs[id]); err != nil {
			s.metrics.PersistErrors.Add(1)
		}
	}
	return nil
}

// PersistedArtifacts reports how many schemas, datasets, and releases
// the durable tier holds (zeros when persistence is disabled) — boot
// logging for cmd/serve.
func (s *Server) PersistedArtifacts() (schemas, datasets, releases int) {
	if s.disk == nil {
		return 0, 0, 0
	}
	return s.disk.counts()
}

// Metrics exposes the server's counters (tests, loadgen reporting).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Schemas exposes the schema registry, for boot-time preloading
// (cmd/serve -schema) and tests.
func (s *Server) Schemas() *schema.Registry { return s.schemas }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusWriter records the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// methods maps HTTP methods to their handlers for one path.
type methods map[string]http.HandlerFunc

// route registers an instrumented path: request/in-flight/error
// counters, a latency observation under "<METHOD> <path>", and — when
// tracing is on — one trace per request, its root span carried in the
// request context so every pipeline layer below can attach stage
// spans. The trace id is echoed as X-Request-Id and joins the request
// log line. Unlisted methods get a 405 without touching the counters.
func (s *Server) route(pattern string, hs methods) {
	display := strings.TrimSuffix(pattern, "/")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		h, ok := hs[r.Method]
		if !ok {
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method " + r.Method + " not allowed"})
			return
		}
		endpoint := r.Method + " " + display
		s.metrics.Requests.Add(1)
		s.metrics.InFlight.Add(1)
		tc := s.tracer.Start(endpoint)
		if id := tc.ID(); id != "" {
			w.Header().Set("X-Request-Id", id)
			r = r.WithContext(obs.ContextWithSpan(r.Context(), tc.Root()))
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			d := time.Since(start)
			s.metrics.InFlight.Add(-1)
			s.metrics.observe(endpoint, d, sw.status)
			if sw.status >= 400 {
				s.metrics.Errors.Add(1)
			}
			tc.SetStatus(sw.status)
			tc.Finish()
			if s.logger != nil {
				s.logger.Info("request",
					"id", tc.ID(),
					"endpoint", endpoint,
					"status", sw.status,
					"ms", float64(d)/float64(time.Millisecond),
					"outcome", tc.Root().Outcome(),
				)
			}
		}()
		h(sw, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeBodyErr maps a request-body read/decode failure to its status:
// a body that blew through its http.MaxBytesReader limit is a 413
// naming the limit; everything else is a plain 400.
func writeBodyErr(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"%s: request body exceeds the %d-byte limit", what, mbe.Limit)
		return
	}
	writeErr(w, http.StatusBadRequest, "%s: %v", what, err)
}

// decodeJSON strictly decodes a JSON body into v (unknown fields and
// trailing garbage rejected), with a 1 MiB limit.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// handleSchemaRegister parses, validates, and registers a declarative
// spec. Validation failures are precise 400s (the registry's
// registration-time coherence checks); a name already bound to
// different content is a 409; an oversized document is a 413.
func (s *Server) handleSchemaRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, schema.MaxSpecBytes))
	if err != nil {
		writeBodyErr(w, "reading spec", err)
		return
	}
	spec, err := schema.Parse(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, existed, err := s.RegisterSchema(spec)
	if err != nil {
		code := http.StatusBadRequest
		var taken *schema.ErrNameTaken
		if errors.As(err, &taken) {
			code = http.StatusConflict
		}
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, SchemaRegisterResponse{ID: id, Name: spec.Name, Existed: existed})
}

// RegisterSchema registers a spec and writes it through to the durable
// tier, so a restarted server still resolves it. It is the entry point
// both for POST /v1/schemas and for boot-time preloading (cmd/serve
// -schema).
func (s *Server) RegisterSchema(spec *schema.Spec) (id string, existed bool, err error) {
	id, existed, err = s.schemas.Register(spec)
	if err != nil || s.disk == nil {
		return id, existed, err
	}
	// Write even when the content already existed: registration is
	// idempotent and so is the file, and re-writing heals a directory
	// that predates persistence or lost the document.
	if doc, ok := s.schemas.Export(id); ok {
		if werr := s.disk.saveSchema(id, doc); werr != nil {
			s.metrics.PersistErrors.Add(1)
		} else {
			s.metrics.PersistWrites.Add(1)
		}
	}
	return id, existed, err
}

// handleSchemaList lists the registered specs, built-ins included.
func (s *Server) handleSchemaList(w http.ResponseWriter, r *http.Request) {
	entries := s.schemas.List()
	resp := SchemaListResponse{Schemas: make([]SchemaInfo, len(entries))}
	for i, e := range entries {
		resp.Schemas[i] = SchemaInfo{
			ID:        e.ID,
			Name:      e.Spec.Name,
			Doc:       e.Spec.Doc,
			QI:        e.Spec.QINames(),
			Sensitive: e.Spec.SensitiveName(),
			Generator: e.Spec.Generator,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveSchema maps a request's schema reference (id or name; empty
// means the built-in Adult spec) to a registered spec.
func (s *Server) resolveSchema(w http.ResponseWriter, ref string) (*schema.Spec, string, bool) {
	if ref == "" {
		ref = "adult"
	}
	spec, id, ok := s.schemas.Resolve(ref)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown schema %q (register it via POST /v1/schemas)", ref)
		return nil, "", false
	}
	return spec, id, true
}

// buildDataset constructs a dataset entry: the engine build is the
// per-dataset setup cost the whole service exists to amortize, so it
// gets its own stage span.
func (s *Server) buildDataset(sp *obs.Span, id string, schemaID string, spec *schema.Spec, table *dataset.Table) (*datasetEntry, error) {
	s.metrics.DatasetBuilds.Add(1)
	esp := sp.StartStage(obs.StageEngineBuild)
	esp.SetShape(obs.Shape{Rows: table.N(), Dims: table.Schema.D()})
	eng, err := core.New(table, spec.Hierarchies(), nil, nil,
		core.WithWorkers(parallel.Resolve(s.cfg.Workers)))
	esp.End()
	if err != nil {
		return nil, err
	}
	return &datasetEntry{id: id, schemaID: schemaID, table: table, engine: eng}, nil
}

// handleDatasets ingests a dataset: JSON {n, seed, schema} synthesizes
// a table under the named schema (default adult); a text/csv body is
// decoded streaming under the ?schema= spec. Both are
// content-addressed — schema id included — so identical inputs return
// the resident dataset and equal content under different schemas stays
// keyed apart.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); strings.Contains(ct, "csv") {
		s.ingestCSV(w, r)
		return
	}
	var req DatasetRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyErr(w, "decoding request", err)
		return
	}
	if req.N < 1 || req.N > s.cfg.MaxSyntheticN {
		writeErr(w, http.StatusBadRequest, "n must be in [1, %d] (got %d)", s.cfg.MaxSyntheticN, req.N)
		return
	}
	// The CSV path names its schema with ?schema=; accept the same
	// spelling here rather than silently synthesizing under the
	// default, but reject a contradictory pair.
	ref := req.Schema
	if q := r.URL.Query().Get("schema"); q != "" {
		if ref != "" && ref != q {
			writeErr(w, http.StatusBadRequest,
				"schema named twice: %q in the body, %q in the query", ref, q)
			return
		}
		ref = q
	}
	spec, schemaID, ok := s.resolveSchema(w, ref)
	if !ok {
		return
	}
	id := hashID("ds", "synthetic|schema="+schemaID+
		"|n="+strconv.Itoa(req.N)+"|seed="+strconv.FormatInt(req.Seed, 10))
	sp := obs.SpanFromContext(r.Context())
	entry, src, err := s.datasets.do(id, func() (*datasetEntry, error) {
		// The singleflight leader runs this closure in its own request
		// goroutine, so the synthesis and build land on that request's
		// trace; followers share the result without inheriting spans.
		ssp := sp.StartStage(obs.StageDatasetSynth)
		table, err := schema.Synthesize(spec, req.N, req.Seed)
		if err == nil {
			ssp.SetShape(obs.Shape{Rows: table.N(), Dims: table.Schema.D()})
		}
		ssp.End()
		if err != nil {
			// Wrap so every caller sharing this singleflight result —
			// not just the leader — classifies it as client input.
			return nil, synthesisError{err}
		}
		e, err := s.buildDataset(sp, id, schemaID, spec, table)
		if err == nil {
			s.persistDataset(sp, datasetRecord{
				ID: id, Schema: schemaID, Source: "synthetic",
				N: req.N, Seed: req.Seed,
			}, nil)
		}
		return e, err
	})
	sp.SetOutcome(src.String())
	if err != nil {
		// A synthesis failure is the spec's own model rejecting the
		// draw (e.g. constraints zeroing a sensitive domain) — the
		// client's input, not a server fault.
		var se synthesisError
		if errors.As(err, &se) {
			writeErr(w, http.StatusBadRequest, "synthesizing dataset: %v", se.err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "building dataset: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, DatasetResponse{
		ID: id, Schema: entry.schemaID, Records: entry.table.N(), Cached: src != sourceMiss})
}

// synthesisError marks a dataset-build failure as caused by the
// schema's own synthesis model, so it maps to a 400 for every caller
// that shares the error (singleflight followers included).
type synthesisError struct{ err error }

func (e synthesisError) Error() string { return e.err.Error() }
func (e synthesisError) Unwrap() error { return e.err }

// ingestCSV streams a CSV body into a table under the request's
// schema, content-hashing the bytes as they pass so the dataset id is
// stable across identical uploads (and distinct across schemas).
func (s *Server) ingestCSV(w http.ResponseWriter, r *http.Request) {
	spec, schemaID, ok := s.resolveSchema(w, r.URL.Query().Get("schema"))
	if !ok {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	h := sha256.New()
	var stream io.Reader = io.TeeReader(body, h)
	// With a durable tier the raw bytes are also retained, so the
	// dataset can be rebuilt byte-identically after a restart.
	var raw bytes.Buffer
	if s.disk != nil {
		stream = io.TeeReader(stream, &raw)
	}
	// Every upload decodes its own body (the content hash needs the
	// bytes), so the decode span is per-request, not singleflighted.
	sp := obs.SpanFromContext(r.Context())
	dsp := sp.StartStage(obs.StageDatasetDecode)
	table, err := dataset.ReadCSV(stream, spec.ColumnSpecs())
	if err == nil {
		dsp.SetShape(obs.Shape{Rows: table.N(), Dims: table.Schema.D()})
	}
	dsp.End()
	if err != nil {
		writeBodyErr(w, "decoding CSV", err)
		return
	}
	if table.N() == 0 {
		writeErr(w, http.StatusBadRequest, "CSV contains no usable rows")
		return
	}
	// Registration-time validation made the spec coherent; upload-time
	// validation makes the data conform to it, with a precise error
	// instead of an engine-build failure deep in the pipeline.
	if err := spec.CheckTable(table); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := hashID("ds", "csv|schema="+schemaID+"|sha256="+hex.EncodeToString(h.Sum(nil)))
	entry, src, err := s.datasets.do(id, func() (*datasetEntry, error) {
		e, err := s.buildDataset(sp, id, schemaID, spec, table)
		if err == nil {
			s.persistDataset(sp, datasetRecord{ID: id, Schema: schemaID, Source: "csv"}, raw.Bytes())
		}
		return e, err
	})
	sp.SetOutcome(src.String())
	if err != nil {
		// Engine-build failures here are caused by the uploaded
		// content, so the client gets a 400.
		writeErr(w, http.StatusBadRequest, "building dataset: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, DatasetResponse{
		ID: id, Schema: entry.schemaID, Records: entry.table.N(), Cached: src != sourceMiss})
}

// handleAnonymize resolves (dataset, algo, model, params) through the
// release store: resident releases return immediately, persisted ones
// recover from disk, concurrent identical requests collapse into one
// pipeline run, and new keys run the pipeline on the shared pool.
// With "async": true the request becomes a queued job instead — a 202
// with the job handle and the (already known, content-addressed)
// release id.
func (s *Server) handleAnonymize(w http.ResponseWriter, r *http.Request) {
	var req AnonymizeRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyErr(w, "decoding request", err)
		return
	}
	req.normalize()
	if err := req.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Explain is transport, not content: strip it before the request
	// reaches the release key, the job queue, or the persisted record.
	explainWanted := wantExplain(r, req.Explain)
	req.Explain = false
	ds, ok := s.getDataset(obs.SpanFromContext(r.Context()), req.Dataset)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	if req.Async {
		// The job carries the canonical synchronous form: Async is
		// transport, not content, and must not leak into the release
		// key or the persisted request.
		req.Async = false
		id := hashID("rel", req.key())
		var j *job
		var deduped bool
		var err error
		if _, resident := s.releases.get(id); resident {
			// Already computed: born-done job — no queue slot spent,
			// no 503 from a full queue, no waiting behind real work.
			s.metrics.countStore(sourceHit)
			obs.SpanFromContext(r.Context()).SetOutcome(sourceHit.String())
			if j, err = s.jobs.complete(ds, req, id); err == nil {
				s.metrics.JobsDone.Add(1)
			}
		} else {
			j, deduped, err = s.jobs.submit(ds, req, id)
		}
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		if deduped {
			s.metrics.JobsDeduped.Add(1)
		} else {
			s.metrics.JobsSubmitted.Add(1)
		}
		resp := s.jobs.snapshot(j)
		resp.Deduped = deduped
		writeJSON(w, http.StatusAccepted, resp)
		return
	}
	entry, src, err := s.resolveOrCompute(r.Context(), ds, req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "anonymizing: %v", err)
		return
	}
	obs.SpanFromContext(r.Context()).SetOutcome(src.String())
	resp := AnonymizeResponse{
		Release:     entry.id,
		Dataset:     ds.id,
		Cached:      src != sourceMiss,
		Algorithm:   entry.res.Algorithm,
		Requirement: entry.res.Requirement,
		Groups:      len(entry.res.Groups),
		Records:     ds.table.N(),
		AvgGroup:    float64(ds.table.N()) / float64(len(entry.res.Groups)),
		Seconds:     entry.seconds,
	}
	if explainWanted {
		resp.Explain = s.explain(obs.SpanFromContext(r.Context()), s.anonymizeShapes(ds, req.Algo))
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveOrCompute is the release-resolution core shared by the sync
// handler and the job workers: memory store, then the durable tier,
// then one singleflighted pipeline run whose result writes through to
// disk. The source return distinguishes resident (sourceHit), shared
// in-flight (sourceShared), disk-recovered (sourceDisk), and freshly
// computed (sourceMiss). The context's span — request or job root —
// receives the stage spans of whatever work this caller actually did:
// the singleflight leader records the recovery or pipeline, followers
// record an empty resolve span, so shared work is attributed once.
func (s *Server) resolveOrCompute(ctx context.Context, ds *datasetEntry, req AnonymizeRequest) (*releaseEntry, source, error) {
	sp := obs.SpanFromContext(ctx)
	id := hashID("rel", req.key())
	fromDisk := false
	rsp := sp.Child(obs.StageNone, "resolve "+id)
	entry, src, err := s.releases.do(id, func() (*releaseEntry, error) {
		if e, ok := s.recoverRelease(rsp, id, ds); ok {
			fromDisk = true
			return e, nil
		}
		e, err := s.runPipeline(rsp, id, ds, req)
		if err != nil {
			return nil, err
		}
		s.persistRelease(rsp, e)
		return e, nil
	})
	rsp.End()
	if fromDisk && src == sourceMiss {
		src = sourceDisk
	}
	s.metrics.countStore(src)
	return entry, src, err
}

// runPipeline executes one anonymization on the dataset's engine. The
// pipeline span groups the run's stage spans (prior passes, kernel
// tables, partitioning) and its finished subtree becomes the release's
// ?stages=1 breakdown.
func (s *Server) runPipeline(sp *obs.Span, id string, ds *datasetEntry, req AnonymizeRequest) (*releaseEntry, error) {
	s.metrics.PipelineRuns.Add(1)
	params := core.Params{K: req.K, L: req.L, T: req.T, B: req.B}
	// A nil method keeps the engine's own default; only an explicit
	// selection overrides it (validate already rejected "exact" here).
	method, err := methodFor(req.Inference, req.MaxStates)
	if err != nil {
		return nil, err
	}
	psp := sp.Child(obs.StageNone, "pipeline "+req.Algo)
	start := time.Now()
	res, _, err := ds.engine.RunAlgorithmWith(
		obs.ContextWithSpan(context.Background(), psp), method, req.Algo, req.Model, params)
	seconds := time.Since(start).Seconds()
	psp.End()
	if err != nil {
		return nil, err
	}
	return &releaseEntry{
		id:          id,
		ds:          ds,
		res:         res,
		req:         req,
		breachModel: breachModelFor(req.Model),
		seconds:     seconds,
		stages:      obs.Breakdown(psp),
	}, nil
}

// methodFor resolves a request's method selection: empty keeps the
// engine default (nil method — the engine substitutes its own), a name
// resolves through inference.ByName.
func methodFor(name string, maxStates int) (inference.Method, error) {
	if name == "" {
		return nil, nil
	}
	return inference.ByName(name, maxStates)
}

// breachModelFor maps a request's model name to the criterion attacks
// test the release against; the composite skyline breaches like (B,t).
func breachModelFor(model string) core.Model {
	if m, ok := core.ParseModel(model); ok {
		return m
	}
	return core.BTPrivacy
}

// attackResponse folds one attack report into its response body:
// breach count plus the risk-profile quantiles. inf is echoed when a
// non-default method produced the numbers.
func attackResponse(entry *releaseEntry, bprime float64, inf string, rep *core.AttackReport) *AttackResponse {
	risks := append([]float64(nil), rep.Risks...)
	sort.Float64s(risks)
	mean := 0.0
	for _, v := range risks {
		mean += v
	}
	mean /= float64(len(risks))
	// Ceil nearest-rank, matching latencyRing.quantiles: the q-quantile
	// is the smallest risk with at least a q fraction of records at or
	// below it (the truncating form reported ~p98.9 as "p99").
	q := func(p float64) float64 {
		idx := int(math.Ceil(p*float64(len(risks)))) - 1
		if idx < 0 {
			idx = 0
		}
		return risks[idx]
	}
	return &AttackResponse{
		Release:    entry.id,
		BPrime:     bprime,
		Inference:  inf,
		Records:    len(risks),
		Vulnerable: rep.Vulnerable,
		MeanRisk:   mean,
		P50Risk:    q(0.50),
		P90Risk:    q(0.90),
		P99Risk:    q(0.99),
		WorstRisk:  rep.WorstRisk,
	}
}

// breachFor rebuilds the criterion attacks test a release against.
func breachFor(entry *releaseEntry) core.Breach {
	params := core.Params{K: entry.req.K, L: entry.req.L, T: entry.req.T, B: entry.req.B}
	return entry.ds.engine.BreachTest(entry.breachModel, params)
}

// computeAttack runs (or joins) one attack evaluation: adversary
// Adv(b') against the stored release, breached under the release's own
// criterion. Classes fan out on the dataset's shared pool; the
// response is bit-identical at any worker count. The method selection
// is part of the singleflight key — concurrent requests for the same
// (release, b') under different methods compute separately and never
// share a result.
func (s *Server) computeAttack(ctx context.Context, entry *releaseEntry, bprime float64, inf string, maxStates int) (*AttackResponse, error) {
	key := entry.id + "|b'=" + strconv.FormatFloat(bprime, 'g', -1, 64) +
		inferenceKeySuffix(inf, maxStates)
	resp, shared, err := s.attacks.Do(key, func() (*AttackResponse, error) {
		// The singleflight leader runs here on its own goroutine's
		// context, so the prior and inference spans land on exactly one
		// trace; followers just share the response.
		method, err := methodFor(inf, maxStates)
		if err != nil {
			return nil, err
		}
		eng := entry.ds.engine
		bvec := kernel.UniformBandwidth(entry.ds.table.Schema.D(), bprime)
		rep, err := eng.AttackWith(ctx, method, entry.res, bvec, entry.req.T, breachFor(entry))
		if err != nil {
			return nil, err
		}
		return attackResponse(entry, bprime, inf, rep), nil
	})
	if shared {
		obs.SpanFromContext(ctx).SetOutcome(sourceShared.String())
	}
	return resp, err
}

// computeSweep runs (or joins) one amortized bandwidth sweep against a
// stored release. The singleflight key is the normalized grid — sorted
// and deduplicated — so concurrent sweeps that permute or repeat the
// same bandwidths share one engine pass; per-bandwidth results are
// bit-identical to single-bprime attacks (the engine's AttackSweep
// guarantee, pinned by the HTTP tests). The return maps each distinct
// bandwidth to its response; callers assemble request order from it.
func (s *Server) computeSweep(ctx context.Context, entry *releaseEntry, bprimes []float64, inf string, maxStates int) (map[float64]*AttackResponse, error) {
	norm := normalizeGrid(bprimes)
	parts := make([]string, len(norm))
	for i, bp := range norm {
		parts[i] = strconv.FormatFloat(bp, 'g', -1, 64)
	}
	key := entry.id + "|sweep=" + strings.Join(parts, ",") +
		inferenceKeySuffix(inf, maxStates)
	results, _, err := s.sweeps.Do(key, func() (map[float64]*AttackResponse, error) {
		method, err := methodFor(inf, maxStates)
		if err != nil {
			return nil, err
		}
		eng := entry.ds.engine
		d := entry.ds.table.Schema.D()
		bvecs := make([][]float64, len(norm))
		for i, bp := range norm {
			bvecs[i] = kernel.UniformBandwidth(d, bp)
		}
		reps, err := eng.AttackSweepWith(ctx, method, entry.res, bvecs, entry.req.T, breachFor(entry))
		if err != nil {
			return nil, err
		}
		out := make(map[float64]*AttackResponse, len(norm))
		for i, bp := range norm {
			out[bp] = attackResponse(entry, bp, inf, reps[i])
		}
		return out, nil
	})
	return results, err
}

// normalizeGrid returns the sorted, deduplicated form of a bprimes
// grid — the canonical key of the sweep it denotes.
func normalizeGrid(bprimes []float64) []float64 {
	norm := append([]float64(nil), bprimes...)
	sort.Float64s(norm)
	out := norm[:0]
	for i, bp := range norm {
		if i == 0 || bp != norm[i-1] {
			out = append(out, bp)
		}
	}
	return out
}

// attackQuery is a validated attack/risk request: the stored release,
// the bandwidth grid to evaluate, and the (canonicalized) method
// selection.
type attackQuery struct {
	entry     *releaseEntry
	bprimes   []float64
	sweep     bool
	explain   bool
	inference string
	maxStates int
}

// getRelease resolves an attack/risk request body to a stored release
// plus the bandwidth grid to evaluate: one entry for the single-bprime
// form (defaulting to 0.3 only when the field is absent), the
// validated request-order grid for the bprimes sweep form. q.sweep
// reports which form was used. An explicit out-of-range value — zero
// included — is rejected, with the check and the message agreeing on
// the valid (0, 1] range.
func (s *Server) getRelease(w http.ResponseWriter, r *http.Request) (q attackQuery, ok bool) {
	var req AttackRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyErr(w, "decoding request", err)
		return q, false
	}
	req.normalizeInference()
	if err := req.validateInference(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return q, false
	}
	q.inference = req.Inference
	q.maxStates = req.MaxStates
	q.explain = wantExplain(r, req.Explain)
	switch {
	case req.BPrimes != nil:
		if req.BPrime != nil {
			writeErr(w, http.StatusBadRequest, "bprime and bprimes are mutually exclusive")
			return q, false
		}
		if len(req.BPrimes) == 0 {
			writeErr(w, http.StatusBadRequest, "bprimes must name at least one bandwidth")
			return q, false
		}
		if len(req.BPrimes) > MaxSweepPoints {
			writeErr(w, http.StatusBadRequest, "bprimes has %d points (max %d)", len(req.BPrimes), MaxSweepPoints)
			return q, false
		}
		q.bprimes = req.BPrimes
		q.sweep = true
	case req.BPrime != nil:
		q.bprimes = []float64{*req.BPrime}
	default:
		q.bprimes = []float64{0.3}
	}
	for _, bp := range q.bprimes {
		if bp <= 0 || bp > 1 {
			writeErr(w, http.StatusBadRequest, "bprime must be in (0, 1] (got %g)", bp)
			return q, false
		}
	}
	entry, found := s.resolveRelease(r.Context(), req.Release)
	if !found {
		writeErr(w, http.StatusNotFound, "unknown release %q", req.Release)
		return q, false
	}
	q.entry = entry
	return q, true
}

// sweepResponses runs the amortized sweep and assembles per-bandwidth
// responses in request order, counting the sweep's amortization into
// the metrics ledger.
func (s *Server) sweepResponses(ctx context.Context, q attackQuery) ([]AttackResponse, error) {
	s.metrics.SweepRequests.Add(1)
	s.metrics.SweepPoints.Add(int64(len(q.bprimes)))
	results, err := s.computeSweep(ctx, q.entry, q.bprimes, q.inference, q.maxStates)
	if err != nil {
		return nil, err
	}
	out := make([]AttackResponse, len(q.bprimes))
	for i, bp := range q.bprimes {
		out[i] = *results[bp]
	}
	return out, nil
}

// writeAttackErr maps an attack/risk evaluation failure: an exact
// inference refusing an oversized group is the request's own method
// selection, a 422 recommending the adaptive method; everything else
// stays a 500.
func writeAttackErr(w http.ResponseWriter, what string, err error) {
	if errors.Is(err, inference.ErrTooLarge) {
		writeErr(w, http.StatusUnprocessableEntity,
			"%s: %v (use \"inference\": \"adaptive\" to fall back to the Ω-estimate on oversized groups)", what, err)
		return
	}
	writeErr(w, http.StatusInternalServerError, "%s: %v", what, err)
}

func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	q, ok := s.getRelease(w, r)
	if !ok {
		return
	}
	if q.sweep {
		results, err := s.sweepResponses(r.Context(), q)
		if err != nil {
			writeAttackErr(w, "attacking", err)
			return
		}
		resp := AttackSweepResponse{Release: q.entry.id, Sweep: results}
		if q.explain {
			resp.Explain = s.attackExplain(r, q)
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp, err := s.computeAttack(r.Context(), q.entry, q.bprimes[0], q.inference, q.maxStates)
	if err != nil {
		writeAttackErr(w, "attacking", err)
		return
	}
	if q.explain {
		// The singleflight result is shared with concurrent callers;
		// the per-request explain block goes on a copy, never the
		// shared value.
		out := *resp
		out.Explain = s.attackExplain(r, q)
		resp = &out
	}
	writeJSON(w, http.StatusOK, resp)
}

// attackExplain builds the cost block for an attack/risk request: the
// cold-path pricing at the request's grid width — and its method's
// inference stage — next to what this request's trace actually spent.
func (s *Server) attackExplain(r *http.Request, q attackQuery) *ExplainBlock {
	lanes := len(normalizeGrid(q.bprimes))
	return s.explain(obs.SpanFromContext(r.Context()), attackShapes(q.entry, lanes, q.inference))
}

func (s *Server) handleRisk(w http.ResponseWriter, r *http.Request) {
	q, ok := s.getRelease(w, r)
	if !ok {
		return
	}
	if q.sweep {
		results, err := s.sweepResponses(r.Context(), q)
		if err != nil {
			writeAttackErr(w, "evaluating risk", err)
			return
		}
		resp := RiskSweepResponse{Release: q.entry.id, Sweep: make([]RiskResponse, len(results))}
		for i, ar := range results {
			resp.Sweep[i] = RiskResponse{Release: ar.Release, BPrime: ar.BPrime, WorstRisk: ar.WorstRisk, Inference: ar.Inference}
		}
		if q.explain {
			resp.Explain = s.attackExplain(r, q)
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp, err := s.computeAttack(r.Context(), q.entry, q.bprimes[0], q.inference, q.maxStates)
	if err != nil {
		writeAttackErr(w, "evaluating risk", err)
		return
	}
	out := RiskResponse{Release: resp.Release, BPrime: resp.BPrime, WorstRisk: resp.WorstRisk, Inference: resp.Inference}
	if q.explain {
		out.Explain = s.attackExplain(r, q)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/releases/")
	if id == "" || strings.Contains(id, "/") {
		writeErr(w, http.StatusBadRequest, "want /v1/releases/{id}")
		return
	}
	entry, ok := s.resolveRelease(r.Context(), id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown release %q", id)
		return
	}
	info := ReleaseInfo{
		ID:          entry.id,
		Dataset:     entry.ds.id,
		Schema:      entry.ds.schemaID,
		Algorithm:   entry.res.Algorithm,
		Requirement: entry.res.Requirement,
		Model:       entry.req.Model,
		K:           entry.req.K,
		L:           entry.req.L,
		T:           entry.req.T,
		B:           entry.req.B,
		Groups:      len(entry.res.Groups),
		Records:     entry.ds.table.N(),
		AvgGroup:    float64(entry.ds.table.N()) / float64(len(entry.res.Groups)),
		Seconds:     entry.seconds,
	}
	// The stage breakdown is opt-in and best-effort (only the process
	// that ran the pipeline under tracing has it), so the default body
	// stays byte-identical across restarts and tracing settings.
	if r.URL.Query().Get("stages") == "1" {
		info.Stages = entry.stages
	}
	writeJSON(w, http.StatusOK, info)
}

// handleJob reports an async anonymize job's lifecycle state; once
// done, the release id it names resolves via GET /v1/releases/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeErr(w, http.StatusBadRequest, "want /v1/jobs/{id}")
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.snapshot(j))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(
		s.releases.len(), s.datasets.len(), s.jobs.pending(),
		s.tracer.Stages().Snapshot(), s.cost.Snapshot())
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", promContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(renderProm(snap))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}
