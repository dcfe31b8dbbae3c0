package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
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
	"repro/internal/privacy"
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
	// Logger, when set, receives one structured line per request
	// (request id, endpoint, status, duration, cache outcome). Nil
	// disables request logging.
	Logger *slog.Logger
}

// maxSyntheticN caps the size of a table synthesized by (n, seed).
const maxSyntheticN = 1_000_000

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
	// requirement is what the release meets; it judges every attack.
	requirement privacy.Requirement
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

	schemas *schema.Registry
	// datasets and releases are the resident stores: bounded LRU
	// caches whose singleflight admission is the one flight per id —
	// ingest or pipeline run, and disk recovery alike.
	datasets *parallel.Cache[*datasetEntry]
	releases *parallel.Cache[*releaseEntry]

	// disk is the durable tier (nil when Config.DataDir is empty).
	disk *diskStore
	// jobs is the async-anonymize queue drained by the job workers.
	jobs *jobQueue

	// sweeps dedups concurrent identical attack computations, and
	// risks concurrent identical worst-case risk computations — a
	// single bprime is the one-point sweep — each keyed on the
	// normalized (sorted, deduplicated) grid so permutations of the
	// same bprimes collapse into one amortized pass. The two never
	// share a flight: a risk pass measures exactly only the pairs that
	// can reach the maximum, so its result cannot answer an attack.
	// Neither memoizes results — the expensive artifact, Adv(B)'s
	// priors, stays in the engine's bounded prior cache — so a repeated
	// request reruns only inference and the measure on the warm engine.
	sweeps parallel.Group[map[float64]*core.AttackReport]
	risks  parallel.Group[map[float64]float64]
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
		datasets: parallel.NewCache[*datasetEntry](cfg.DatasetCap),
		releases: parallel.NewCache[*releaseEntry](cfg.ReleaseCap),
		jobs:     newJobQueue(cfg.JobQueueDepth),
	}
	if !cfg.DisableTracing {
		s.tracer = obs.NewTracer(cfg.TraceRing)
	}
	s.cost = costmodel.New(s.tracer.Stages())
	s.schemas.MustRegister(adult.Spec())
	s.releases.OnEvict = func(string) { s.metrics.StoreEvictions.Add(1) }
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
	s.route("/v1/attack", methods{http.MethodPost: s.handleAttack(false)})
	s.route("/v1/risk", methods{http.MethodPost: s.handleAttack(true)})
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
// counters, a latency observation into the "<METHOD> <path>" histogram
// (registered here, so requests observe it without a lock), and — when
// tracing is on — one trace per request, its root span carried in the
// request context so every pipeline layer below can attach stage
// spans. The trace id is echoed as X-Request-Id and joins the request
// log line. Unlisted methods get a 405 without touching the counters.
func (s *Server) route(pattern string, hs methods) {
	display := strings.TrimSuffix(pattern, "/")
	lat := make(map[string]*endpointLatency, len(hs))
	for _, method := range sortedKeys(hs) {
		lat[method] = s.metrics.endpoint(method + " " + display)
	}
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
			lat[r.Method].observe(d, sw.status)
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
	if err != nil {
		return id, existed, err
	}
	// Write even when the content already existed: registration is
	// idempotent and so is the file, and re-writing heals a directory
	// that predates persistence or lost the document.
	if doc, ok := s.schemas.Export(id); ok {
		s.writeThrough(nil, "persist schema "+id, obs.Shape{}, func(d *diskStore) error { return d.saveSchema(id, doc) })
	}
	return id, existed, nil
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

// synthesize draws a table from spec's synthesis model — the ingest
// and the disk-recovery path alike — as a dataset-synthesis stage.
func synthesize(sp *obs.Span, spec *schema.Spec, n int, seed int64) (*dataset.Table, error) {
	ssp := sp.StartStage(obs.StageDatasetSynth)
	table, err := schema.Synthesize(spec, n, seed)
	if err == nil {
		ssp.SetShape(obs.Shape{Rows: table.N(), Dims: table.Schema.D()})
	}
	ssp.End()
	return table, err
}

// decodeCSV streams a CSV body into a table under spec's columns — the
// upload and the disk-recovery path alike — as a dataset-decode stage.
func decodeCSV(sp *obs.Span, r io.Reader, spec *schema.Spec) (*dataset.Table, error) {
	dsp := sp.StartStage(obs.StageDatasetDecode)
	table, err := dataset.ReadCSV(r, spec.ColumnSpecs())
	if err == nil {
		dsp.SetShape(obs.Shape{Rows: table.N(), Dims: table.Schema.D()})
	}
	dsp.End()
	return table, err
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
	if req.N < 1 || req.N > maxSyntheticN {
		writeErr(w, http.StatusBadRequest, "n must be in [1, %d] (got %d)", maxSyntheticN, req.N)
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
	rec := datasetRecord{Schema: schemaID, Source: "synthetic", N: req.N, Seed: req.Seed}
	rec.ID = rec.contentID(nil)
	sp := obs.SpanFromContext(r.Context())
	// A build failure of a synthesized table is the server's own.
	s.admitDataset(w, sp, rec, nil, spec, http.StatusInternalServerError, func() (*dataset.Table, error) {
		return synthesize(sp, spec, req.N, req.Seed)
	})
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
	table, err := decodeCSV(sp, stream, spec)
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
	rec := datasetRecord{Schema: schemaID, Source: "csv"}
	rec.ID = rec.contentID(h.Sum(nil))
	// Engine-build failures here are caused by the uploaded content,
	// so the client gets a 400.
	s.admitDataset(w, sp, rec, raw.Bytes(), spec, http.StatusBadRequest, func() (*dataset.Table, error) {
		return table, nil
	})
}

// admitDataset is the ingest tail both sources share: in the dataset
// store's one flight for rec.ID it draws the table, builds the engine,
// and writes the manifest (plus csvBody) through to disk, then answers
// with the outcome. A table failure is the client's input (400); an
// engine-build failure answers buildCode. The flight leader runs table
// in its own request goroutine, so the synthesis and build land on that
// request's trace; followers share the result without inheriting spans.
func (s *Server) admitDataset(w http.ResponseWriter, sp *obs.Span, rec datasetRecord, csvBody []byte,
	spec *schema.Spec, buildCode int, table func() (*dataset.Table, error)) {
	entry, src, err := computeThrough(s.datasets, rec.ID, func() (*datasetEntry, error) {
		t, err := table()
		if err != nil {
			// Wrap so every caller sharing this flight — not just the
			// leader — classifies it as client input.
			return nil, synthesisError{err}
		}
		e, err := s.buildDataset(sp, rec.ID, rec.Schema, spec, t)
		if err == nil {
			s.writeThrough(sp, "persist dataset "+rec.ID, obs.Shape{Rows: rec.N},
				func(d *diskStore) error { return d.saveDataset(rec, csvBody) })
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
		writeErr(w, buildCode, "building dataset: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, DatasetResponse{
		ID: rec.ID, Schema: entry.schemaID, Records: entry.table.N(), Cached: src != sourceMiss})
}

// anonymizeOp is an anonymize request on its one parse → validate →
// resolve path: normalized, validated, stripped of its transport
// fields, keyed, and resolved to the dataset it runs on. The handler
// runs it; its explain block and GET /v1/estimate price it.
type anonymizeOp struct {
	req AnonymizeRequest
	// id is the release id, the content address of req.
	id string
	ds *datasetEntry
	// resident reports that the release is already in the store.
	resident       bool
	explain, async bool
}

// resolveAnonymize takes a parsed anonymize request — a POST body or
// an estimate query — through validation to the dataset it runs on. A
// resident release carries its dataset entry, so it answers even after
// the dataset store evicted the dataset; only a miss looks the dataset
// up. On failure it has written the 4xx.
func (s *Server) resolveAnonymize(w http.ResponseWriter, r *http.Request, req AnonymizeRequest) (op anonymizeOp, ok bool) {
	req.normalize()
	if err := req.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return op, false
	}
	// Explain and async are transport, not content: strip them before
	// the request reaches the release key, the job queue, or the
	// persisted record. The job carries the canonical synchronous form.
	op.explain, op.async = wantExplain(r, req.Explain), req.Async
	req.Explain, req.Async = false, false
	op.req, op.id = req, hashID("rel", req.key())
	if e, hit := s.releases.Get(op.id); hit {
		op.ds, op.resident = e.ds, true
		return op, true
	}
	// The closure captures copies, not req, so req stays on the stack.
	sp, id := obs.SpanFromContext(r.Context()), req.Dataset
	if op.ds, ok = lookup(s, s.datasets, id, func() (*datasetEntry, bool) { return s.recoverDataset(sp, id) }); !ok {
		writeErr(w, http.StatusNotFound, "unknown dataset %q", id)
	}
	return op, ok
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
	op, ok := s.resolveAnonymize(w, r, req)
	if !ok {
		return
	}
	sp := obs.SpanFromContext(r.Context())
	if op.async {
		var j *job
		var deduped bool
		var err error
		if op.resident {
			// Already computed: born-done job — no queue slot spent,
			// no 503 from a full queue, no waiting behind real work.
			s.metrics.countStore(sourceHit)
			sp.SetOutcome(sourceHit.String())
			if j, err = s.jobs.complete(op.ds, op.req, op.id); err == nil {
				s.metrics.JobsDone.Add(1)
			}
		} else {
			j, deduped, err = s.jobs.submit(op.ds, op.req, op.id)
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
	entry, src, err := s.resolveOrCompute(r.Context(), op.ds, op.req, op.id)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, privacy.ErrUnsatisfiable) {
			code = http.StatusUnprocessableEntity
		}
		writeErr(w, code, "anonymizing: %v", err)
		return
	}
	sp.SetOutcome(src.String())
	resp := AnonymizeResponse{
		Release:     entry.id,
		Dataset:     op.ds.id,
		Cached:      src != sourceMiss,
		Algorithm:   entry.res.Algorithm,
		Requirement: entry.res.Requirement,
		Groups:      len(entry.res.Groups),
		Records:     op.ds.table.N(),
		AvgGroup:    float64(op.ds.table.N()) / float64(len(entry.res.Groups)),
		Seconds:     entry.seconds,
	}
	if op.explain {
		resp.Explain = s.explain(sp, s.anonymizeShapes(op))
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveOrCompute is the release-resolution core shared by the sync
// handler and the job workers: memory store, then — in the release
// cache's one flight per id, which lookups share — the durable tier,
// then a pipeline run whose result writes through to disk. id is the
// release id of req. The source return distinguishes resident
// (sourceHit), shared in-flight (sourceShared), disk-recovered
// (sourceDisk), and freshly computed (sourceMiss). The context's span
// — request or job root — receives the stage spans of whatever work
// this caller actually did: the singleflight leader records the
// recovery or pipeline, followers record an empty resolve span, so
// shared work is attributed once.
func (s *Server) resolveOrCompute(ctx context.Context, ds *datasetEntry, req AnonymizeRequest, id string) (*releaseEntry, source, error) {
	sp := obs.SpanFromContext(ctx)
	fromDisk := false
	rsp := sp.Child(obs.StageNone, "resolve "+id)
	entry, src, err := computeThrough(s.releases, id, func() (*releaseEntry, error) {
		if e, ok := s.recoverRelease(rsp, id, ds); ok {
			fromDisk = true
			return e, nil
		}
		e, err := s.runPipeline(rsp, id, ds, req)
		if err != nil {
			return nil, err
		}
		s.writeThrough(rsp, "persist release "+e.id, obs.Shape{Rows: e.ds.table.N(), Groups: len(e.res.Groups)},
			func(d *diskStore) error { return d.saveRelease(e.record()) })
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
	// validate already rejected "exact" here.
	method, err := req.method()
	if err != nil {
		return nil, err
	}
	psp := sp.Child(obs.StageNone, "pipeline "+req.Algo)
	start := time.Now()
	res, requirement, err := ds.engine.RunAlgorithmWith(
		obs.ContextWithSpan(context.Background(), psp), method, req.Model, params)
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
		requirement: requirement,
		seconds:     seconds,
		stages:      obs.Breakdown(psp),
	}, nil
}

// attackResponse folds one attack report into its response body:
// breach count plus the risk-profile quantiles. inf is echoed when a
// non-default method produced the numbers.
func attackResponse(entry *releaseEntry, bprime float64, inf string, rep *core.AttackReport) AttackResponse {
	prof := core.Profile(rep.Risks)
	return AttackResponse{
		Release:    entry.id,
		BPrime:     bprime,
		Inference:  inf,
		Records:    len(rep.Risks),
		Vulnerable: rep.Vulnerable,
		MeanRisk:   prof.Mean,
		P50Risk:    prof.P50,
		P90Risk:    prof.P90,
		P99Risk:    prof.P99,
		WorstRisk:  rep.WorstRisk,
	}
}

// sweepFlight runs (or joins) one evaluation of the request's grid
// against its stored release — one point for the single-bprime form —
// on g, the operation's own singleflight group: run evaluates the
// normalized grid's uniform bandwidth vectors under the selected method
// and returns one result per bandwidth. Classes fan out on the
// dataset's shared pool; results are bit-identical at any worker count. The key is the normalized grid —
// sorted and deduplicated — plus the method selection, so concurrent
// requests that permute or repeat the same bandwidths share one engine
// pass while requests under different methods never share a result.
// The return maps each distinct bandwidth to its result; callers
// assemble request order from it.
func sweepFlight[T any](ctx context.Context, g *parallel.Group[map[float64]T], op attackOp,
	run func(method inference.Method, bvecs [][]float64) ([]T, error)) (map[float64]T, error) {
	norm := normalizeGrid(op.bprimes)
	parts := make([]string, len(norm))
	for i, bp := range norm {
		parts[i] = strconv.FormatFloat(bp, 'g', -1, 64)
	}
	key := op.entry.id + "|sweep=" + strings.Join(parts, ",") + op.sel.key()
	results, shared, err := g.Do(key, func() (map[float64]T, error) {
		// The singleflight leader runs here on its own goroutine's
		// context, so the prior and inference spans land on exactly one
		// trace; followers just share the results.
		method, err := op.sel.method()
		if err != nil {
			return nil, err
		}
		d := op.entry.ds.table.Schema.D()
		bvecs := make([][]float64, len(norm))
		for i, bp := range norm {
			bvecs[i] = kernel.UniformBandwidth(d, bp)
		}
		vals, err := run(method, bvecs)
		if err != nil {
			return nil, err
		}
		out := make(map[float64]T, len(norm))
		for i, bp := range norm {
			out[bp] = vals[i]
		}
		return out, nil
	})
	if shared {
		obs.SpanFromContext(ctx).SetOutcome(sourceShared.String())
	}
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

// validateGrid checks a bandwidth grid the way every attack/risk
// surface (POST bodies and the estimate query) accepts it: one to
// MaxSweepPoints points, each in (0, 1] — zero and NaN rejected.
func validateGrid(bprimes []float64) error {
	if len(bprimes) == 0 {
		return errors.New("bprimes must name at least one bandwidth")
	}
	if len(bprimes) > MaxSweepPoints {
		return fmt.Errorf("bprimes has %d points (max %d)", len(bprimes), MaxSweepPoints)
	}
	for _, bp := range bprimes {
		if !(bp > 0 && bp <= 1) {
			return fmt.Errorf("bprime must be in (0, 1] (got %g)", bp)
		}
	}
	return nil
}

// attackOp is an attack/risk request on its one parse → validate →
// resolve path: the stored release, the bandwidth grid to evaluate, the
// (canonicalized) method selection, and whether it asks for worst-case
// risk alone. The handler runs it; its explain block and GET
// /v1/estimate price it.
type attackOp struct {
	entry   *releaseEntry
	bprimes []float64
	sweep   bool
	explain bool
	risk    bool
	sel     methodSel
}

// resolveAttack takes a parsed attack/risk request — a POST body or an
// estimate query — to a stored release plus the bandwidth grid to
// evaluate: one entry for the single-bprime form (defaulting to 0.3
// only when the field is absent), the validated request-order grid for
// the bprimes sweep form. op.sweep reports which form was used. An
// explicit out-of-range value — zero included — is rejected, with the
// check and the message agreeing on the valid (0, 1] range. risk marks
// a /v1/risk request. On failure it has written the 4xx.
func (s *Server) resolveAttack(w http.ResponseWriter, r *http.Request, req AttackRequest, risk bool) (op attackOp, ok bool) {
	op.risk = risk
	req.methodSel.normalize()
	if _, err := req.method(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return op, false
	}
	op.sel = req.methodSel
	op.explain = wantExplain(r, req.Explain)
	switch {
	case req.BPrimes != nil:
		if req.BPrime != nil {
			writeErr(w, http.StatusBadRequest, "bprime and bprimes are mutually exclusive")
			return op, false
		}
		op.bprimes = req.BPrimes
		op.sweep = true
	case req.BPrime != nil:
		op.bprimes = []float64{*req.BPrime}
	default:
		op.bprimes = []float64{0.3}
	}
	if err := validateGrid(op.bprimes); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return op, false
	}
	// The closure captures copies, not req, so req stays on the stack.
	sp, id := obs.SpanFromContext(r.Context()), req.Release
	if op.entry, ok = lookup(s, s.releases, id, func() (*releaseEntry, bool) { return s.recoverRelease(sp, id, nil) }); !ok {
		writeErr(w, http.StatusNotFound, "unknown release %q", id)
	}
	return op, ok
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

// handleAttack returns the one handler of POST /v1/attack and
// /v1/risk: both decode an AttackRequest and resolve it on one path.
// An attack runs the full sweep, since its quantiles and breach count
// need every per-record gain; a risk request runs the bound-first
// worst-case risk pass (core.WorstCaseRiskSweep), which measures
// exactly only the pairs that can reach the maximum. Each has its own
// singleflight group, as a risk result cannot answer an attack.
func (s *Server) handleAttack(risk bool) http.HandlerFunc {
	what := "attacking"
	if risk {
		what = "evaluating risk"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		var req AttackRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeBodyErr(w, "decoding request", err)
			return
		}
		op, ok := s.resolveAttack(w, r, req, risk)
		if !ok {
			return
		}
		if op.sweep {
			s.metrics.SweepRequests.Add(1)
			s.metrics.SweepPoints.Add(int64(len(op.bprimes)))
		}
		var body any
		var err error
		if risk {
			body, err = s.riskBody(r.Context(), op)
		} else {
			body, err = s.attackBody(r.Context(), op)
		}
		if err != nil {
			writeAttackErr(w, what, err)
			return
		}
		writeJSON(w, http.StatusOK, body)
	}
}

// opExplain is the request's opt-in explain block, nil without it.
func (s *Server) opExplain(ctx context.Context, op attackOp) *ExplainBlock {
	if !op.explain {
		return nil
	}
	return s.explain(obs.SpanFromContext(ctx), attackShapes(op))
}

// attackBody runs POST /v1/attack: the full response per bandwidth, in
// request order.
func (s *Server) attackBody(ctx context.Context, op attackOp) (any, error) {
	entry := op.entry
	reps, err := sweepFlight(ctx, &s.sweeps, op, func(method inference.Method, bvecs [][]float64) ([]*core.AttackReport, error) {
		judge, _ := entry.requirement.(privacy.Judge)
		return entry.ds.engine.AttackSweepWith(ctx, method, entry.res, bvecs, entry.req.T, judge)
	})
	if err != nil {
		return nil, err
	}
	sweep := make([]AttackResponse, len(op.bprimes))
	for i, bp := range op.bprimes {
		sweep[i] = attackResponse(entry, bp, op.sel.Inference, reps[bp])
	}
	explain := s.opExplain(ctx, op)
	if op.sweep {
		return AttackSweepResponse{Release: entry.id, Sweep: sweep, Explain: explain}, nil
	}
	sweep[0].Explain = explain
	return sweep[0], nil
}

// riskBody runs POST /v1/risk: the worst-case risk per bandwidth, in
// request order.
func (s *Server) riskBody(ctx context.Context, op attackOp) (any, error) {
	entry := op.entry
	worst, err := sweepFlight(ctx, &s.risks, op, func(method inference.Method, bvecs [][]float64) ([]float64, error) {
		return entry.ds.engine.WorstCaseRiskSweep(ctx, method, entry.res, bvecs)
	})
	if err != nil {
		return nil, err
	}
	sweep := make([]RiskResponse, len(op.bprimes))
	for i, bp := range op.bprimes {
		sweep[i] = RiskResponse{Release: entry.id, BPrime: bp, WorstRisk: worst[bp], Inference: op.sel.Inference}
	}
	explain := s.opExplain(ctx, op)
	if op.sweep {
		return RiskSweepResponse{Release: entry.id, Sweep: sweep, Explain: explain}, nil
	}
	sweep[0].Explain = explain
	return sweep[0], nil
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/releases/")
	if id == "" || strings.Contains(id, "/") {
		writeErr(w, http.StatusBadRequest, "want /v1/releases/{id}")
		return
	}
	sp := obs.SpanFromContext(r.Context())
	entry, ok := lookup(s, s.releases, id, func() (*releaseEntry, bool) { return s.recoverRelease(sp, id, nil) })
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
		s.releases.Len(), s.datasets.Len(), s.jobs.pending(),
		s.tracer.Stages().Snapshot(), s.cost.Snapshot())
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", promContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(renderProm(snap))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}
