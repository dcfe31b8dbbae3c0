package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// diskStore is the durable tier under the in-memory LRU caches: a
// write-through, content-addressed file layout keyed by the same
// rel_…/ds_…/sch_… ids the memory stores use. Because every artifact
// is content-addressed and the pipeline is deterministic, the disk
// copy is exact — a release loaded back hashes to the id it was
// stored under (verified on every load), so LRU eviction and process
// restarts no longer lose work.
//
// Layout under the root:
//
//	schemas/sch_<hash>.json    canonical spec JSON (replayed at boot)
//	datasets/ds_<hash>.json    manifest: how to rebuild the table
//	datasets/ds_<hash>.csv     raw upload bytes (csv-sourced datasets)
//	releases/rel_<hash>.json   request + group partition + summary
//
// Writes are atomic (temp file + rename) so a crash mid-write leaves
// either the old file or none, never a torn one. Loads that fail
// integrity checks are treated as absent: the caller degrades to
// recomputation, never to a 500.
type diskStore struct {
	root string
}

// newDiskStore opens (creating if needed) the on-disk tier at root,
// sweeping temp files orphaned by a crash mid-write.
func newDiskStore(root string) (*diskStore, error) {
	for _, sub := range []string{"schemas", "datasets", "releases"} {
		dir := filepath.Join(root, sub)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: creating data dir: %w", err)
		}
		if orphans, err := filepath.Glob(filepath.Join(dir, ".tmp-*")); err == nil {
			for _, p := range orphans {
				os.Remove(p)
			}
		}
	}
	return &diskStore{root: root}, nil
}

// errNotPersisted reports that an id has no (usable) file on disk —
// either it was never written, or it failed an integrity check and is
// being treated as absent.
var errNotPersisted = errors.New("service: not in the persistent store")

// validID reports whether id is a well-formed content address for the
// given prefix: prefix, underscore, lowercase hex. Ids arrive in URLs
// and become file names, so anything else (path separators, dots,
// traversal) is rejected before it reaches the filesystem.
func validID(prefix, id string) bool {
	rest, ok := strings.CutPrefix(id, prefix+"_")
	if !ok || rest == "" {
		return false
	}
	for _, c := range rest {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeFile atomically writes data to path via a temp file + fsync +
// rename: the sync orders the data blocks before the rename, so even
// a power loss leaves the old file or the complete new one — the
// content-address check on load catches anything the filesystem still
// manages to tear.
func (d *diskStore) writeFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ---- schemas ----

// saveSchema persists a registered spec's canonical JSON under its id.
func (d *diskStore) saveSchema(id string, doc []byte) error {
	if !validID("sch", id) {
		return fmt.Errorf("service: refusing to persist malformed schema id %q", id)
	}
	return d.writeFile(filepath.Join(d.root, "schemas", id+".json"), doc)
}

// loadSchemas returns every persisted spec document, for boot-time
// replay through schema.Registry.Import.
func (d *diskStore) loadSchemas() (map[string][]byte, error) {
	entries, err := os.ReadDir(filepath.Join(d.root, "schemas"))
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || !validID("sch", id) {
			continue
		}
		doc, err := os.ReadFile(filepath.Join(d.root, "schemas", e.Name()))
		if err != nil {
			return nil, err
		}
		out[id] = doc
	}
	return out, nil
}

// ---- datasets ----

// datasetRecord is the manifest that makes a dataset rebuildable: the
// schema it was ingested under plus either the synthesis parameters or
// a pointer to the saved CSV bytes. The record never stores the
// decoded table — rebuilding from the same inputs is deterministic and
// byte-identical, which the load path verifies by re-deriving the id.
type datasetRecord struct {
	ID     string `json:"id"`
	Schema string `json:"schema"`
	Source string `json:"source"` // "synthetic" | "csv"
	N      int    `json:"n,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// contentID derives the content address of the dataset the manifest
// describes: the schema plus either the synthesis parameters or, for
// csv-sourced records, csvSum (the SHA-256 of the uploaded bytes).
// Ingest names a dataset with it, and the load path re-derives it as
// the integrity check. An unknown source has no address ("").
func (r *datasetRecord) contentID(csvSum []byte) string {
	switch r.Source {
	case "synthetic":
		return hashID("ds", "synthetic|schema="+r.Schema+
			"|n="+strconv.Itoa(r.N)+"|seed="+strconv.FormatInt(r.Seed, 10))
	case "csv":
		return hashID("ds", "csv|schema="+r.Schema+"|sha256="+hex.EncodeToString(csvSum))
	default:
		return ""
	}
}

// saveDataset persists a dataset manifest (plus the raw CSV bytes for
// uploaded datasets).
func (d *diskStore) saveDataset(rec datasetRecord, csvBody []byte) error {
	if !validID("ds", rec.ID) {
		return fmt.Errorf("service: refusing to persist malformed dataset id %q", rec.ID)
	}
	if rec.Source == "csv" {
		if err := d.writeFile(filepath.Join(d.root, "datasets", rec.ID+".csv"), csvBody); err != nil {
			return err
		}
	}
	doc, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return d.writeFile(filepath.Join(d.root, "datasets", rec.ID+".json"), doc)
}

// loadDataset reads a dataset manifest (and the saved CSV bytes for
// uploaded datasets), verifying the content address end to end: a
// manifest whose fields no longer hash to its own id — renamed,
// edited, or truncated — is reported as absent, not served.
func (d *diskStore) loadDataset(id string) (datasetRecord, []byte, error) {
	var rec datasetRecord
	if !validID("ds", id) {
		return rec, nil, errNotPersisted
	}
	doc, err := os.ReadFile(filepath.Join(d.root, "datasets", id+".json"))
	if err != nil {
		return rec, nil, errNotPersisted
	}
	if err := json.Unmarshal(doc, &rec); err != nil {
		return rec, nil, fmt.Errorf("service: corrupt dataset manifest %s: %w", id, err)
	}
	var csvBody []byte
	if rec.Source == "csv" {
		csvBody, err = os.ReadFile(filepath.Join(d.root, "datasets", id+".csv"))
		if err != nil {
			return rec, nil, fmt.Errorf("service: dataset %s lost its CSV body: %w", id, err)
		}
	}
	sum := sha256.Sum256(csvBody)
	if rec.ID != id || rec.contentID(sum[:]) != id {
		return rec, nil, fmt.Errorf("service: dataset file %s fails its content-address check", id)
	}
	return rec, csvBody, nil
}

// ---- releases ----

// groupRecord is one equivalence class in serialized form: the record
// indexes and the QI extent, verbatim. Row order matters — attacks
// iterate groups and rows in stored order, and byte-identical recovery
// depends on preserving it exactly.
type groupRecord struct {
	Rows []int `json:"rows"`
	Lo   []int `json:"lo"`
	Hi   []int `json:"hi"`
}

// releaseRecord is a release in serialized form: the normalized
// request (whose canonical key re-derives the release id — the
// integrity check), the owning dataset, and the full group partition.
type releaseRecord struct {
	ID          string           `json:"id"`
	Dataset     string           `json:"dataset"`
	Schema      string           `json:"schema"`
	Request     AnonymizeRequest `json:"request"`
	Algorithm   string           `json:"algorithm"`
	Requirement string           `json:"requirement"`
	Groups      []groupRecord    `json:"groups"`
	Records     int              `json:"records"`
	Seconds     float64          `json:"seconds"`
}

// saveRelease persists a computed release.
func (d *diskStore) saveRelease(rec releaseRecord) error {
	if !validID("rel", rec.ID) {
		return fmt.Errorf("service: refusing to persist malformed release id %q", rec.ID)
	}
	doc, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return d.writeFile(filepath.Join(d.root, "releases", rec.ID+".json"), doc)
}

// loadRelease reads a persisted release, verifying that the stored
// request still hashes to the id the file claims — the end-to-end
// "loaded release hashes to the id it was stored under" guarantee —
// that the unhashed dataset field agrees with the request's, and that
// the request passes the validation a live request does.
func (d *diskStore) loadRelease(id string) (releaseRecord, error) {
	var rec releaseRecord
	if !validID("rel", id) {
		return rec, errNotPersisted
	}
	doc, err := os.ReadFile(filepath.Join(d.root, "releases", id+".json"))
	if err != nil {
		return rec, errNotPersisted
	}
	if err := json.Unmarshal(doc, &rec); err != nil {
		return rec, fmt.Errorf("service: corrupt release file %s: %w", id, err)
	}
	if rec.ID != id || hashID("rel", rec.Request.key()) != id || rec.Dataset != rec.Request.Dataset {
		return rec, fmt.Errorf("service: release file %s fails its content-address check", id)
	}
	// Recovery rebuilds the release's requirement from the stored
	// request, so it must be one a client could have sent.
	if err := rec.Request.validate(); err != nil {
		return rec, fmt.Errorf("service: release file %s: %w", id, err)
	}
	return rec, nil
}

// ---- server-side recovery and write-through ----

// writeThrough runs one durable-tier write — a schema document, a
// dataset manifest, or a release — under a persist-write span on sp
// (schema registration has none), and is a no-op without a durable
// tier. Failures are counted, not fatal: the in-memory entry is
// already live; only durability degrades.
func (s *Server) writeThrough(sp *obs.Span, name string, shape obs.Shape, save func(d *diskStore) error) {
	if s.disk == nil {
		return
	}
	wsp := sp.Child(obs.StagePersistWrite, name)
	wsp.SetShape(shape)
	defer wsp.End()
	if err := save(s.disk); err != nil {
		s.metrics.PersistErrors.Add(1)
		return
	}
	s.metrics.PersistWrites.Add(1)
}

// record is the release's serialized form.
func (e *releaseEntry) record() releaseRecord {
	rec := releaseRecord{
		ID:          e.id,
		Dataset:     e.ds.id,
		Schema:      e.ds.schemaID,
		Request:     e.req,
		Algorithm:   e.res.Algorithm,
		Requirement: e.res.Requirement,
		Groups:      make([]groupRecord, len(e.res.Groups)),
		Records:     e.ds.table.N(),
		Seconds:     e.seconds,
	}
	for i, g := range e.res.Groups {
		rec.Groups[i] = groupRecord{Rows: g.Rows, Lo: g.Extent.Lo, Hi: g.Extent.Hi}
	}
	return rec
}

// computeThrough resolves id through cache c for a caller that builds
// the value when it is absent (ingest, the anonymize pipeline). Lookups
// admit through the same cache, so one id has one flight — but a
// lookup's flight only recovers from disk and fails with
// errNotPersisted when the id is on neither tier. A caller that shared
// such a flight retries: it leads its own computation or joins the
// next flight. compute itself never returns errNotPersisted.
func computeThrough[V any](c *parallel.Cache[V], id string, compute func() (V, error)) (V, source, error) {
	for {
		v, o, err := c.Do(id, compute)
		if !errors.Is(err, errNotPersisted) {
			return v, source(o), err
		}
	}
}

// lookup resolves an id through store c, then — with a durable tier —
// the disk. It is the one lookup path of datasets (anonymize, estimate,
// release recovery) and of releases (GET /v1/releases, attack/risk,
// estimate). recover rebuilds the entry from its persisted form in the
// store's one flight for the id, shared with concurrent recoveries and
// with an in-flight ingest or anonymize of the same id (which the
// lookup then waits for); the recovered entry is admitted, so later
// lookups are memory hits. Without a durable tier a lookup is a plain
// Get: a miss is unknown, and it never waits.
func lookup[V any](s *Server, c *parallel.Cache[V], id string, recover func() (V, bool)) (V, bool) {
	if s.disk == nil {
		return c.Get(id)
	}
	v, _, err := c.Do(id, func() (V, error) {
		if v, ok := recover(); ok {
			return v, nil
		}
		var zero V
		return zero, errNotPersisted
	})
	return v, err == nil
}

// recoverDataset rebuilds a dataset entry from its persisted manifest,
// recording the disk read and the deterministic rebuild (synthesis or
// CSV decode, then the engine build) as stage spans. Any failure
// reports the dataset as absent.
func (s *Server) recoverDataset(sp *obs.Span, id string) (*datasetEntry, bool) {
	psp := sp.Child(obs.StagePersistRead, "load dataset "+id)
	rec, csvBody, err := s.disk.loadDataset(id)
	if err == nil {
		psp.SetShape(obs.Shape{Rows: rec.N})
	}
	psp.End()
	if err != nil {
		if !errors.Is(err, errNotPersisted) {
			s.metrics.PersistErrors.Add(1)
		}
		return nil, false
	}
	spec, schemaID, ok := s.schemas.Resolve(rec.Schema)
	if !ok || schemaID != rec.Schema {
		s.metrics.PersistErrors.Add(1)
		return nil, false
	}
	// loadDataset's content-address check admits only the two sources.
	var table *dataset.Table
	if rec.Source == "csv" {
		table, err = decodeCSV(sp, bytes.NewReader(csvBody), spec)
	} else {
		table, err = synthesize(sp, spec, rec.N, rec.Seed)
	}
	if err != nil {
		s.metrics.PersistErrors.Add(1)
		return nil, false
	}
	e, err := s.buildDataset(sp, id, schemaID, spec, table)
	if err != nil {
		s.metrics.PersistErrors.Add(1)
		return nil, false
	}
	s.metrics.PersistDatasetLoads.Add(1)
	return e, true
}

// recoverRelease rebuilds a release entry from its persisted record:
// the dataset resolves through memory→disk (rebuilding the engine if
// needed — a dataset build, never a pipeline run), the group partition
// is reconstituted verbatim, and the result is audited against the
// requirement rebuilt from the stored request (core.Engine.AuditWith).
// Any integrity failure reports the release as absent so callers
// degrade to recomputation or 404, never a 500. ds, when non-nil, is
// the already-resolved owning dataset.
func (s *Server) recoverRelease(sp *obs.Span, id string, ds *datasetEntry) (*releaseEntry, bool) {
	if s.disk == nil {
		return nil, false
	}
	psp := sp.Child(obs.StagePersistRead, "load release "+id)
	rec, err := s.disk.loadRelease(id)
	if err == nil {
		psp.SetShape(obs.Shape{Rows: rec.Records, Groups: len(rec.Groups)})
	}
	psp.End()
	if err != nil {
		if !errors.Is(err, errNotPersisted) {
			s.metrics.PersistErrors.Add(1)
		}
		return nil, false
	}
	if ds == nil || ds.id != rec.Dataset {
		var ok bool
		ds, ok = lookup(s, s.datasets, rec.Dataset, func() (*datasetEntry, bool) { return s.recoverDataset(sp, rec.Dataset) })
		if !ok {
			s.metrics.PersistErrors.Add(1)
			return nil, false
		}
	}
	d := ds.table.Schema.D()
	res := &anonymize.Result{
		Table:       ds.table,
		Groups:      make([]*anonymize.Group, len(rec.Groups)),
		Algorithm:   rec.Algorithm,
		Requirement: rec.Requirement,
	}
	for i, g := range rec.Groups {
		if len(g.Lo) != d || len(g.Hi) != d {
			s.metrics.PersistErrors.Add(1)
			return nil, false
		}
		res.Groups[i] = &anonymize.Group{
			Rows:   g.Rows,
			Extent: anonymize.Extent{Lo: g.Lo, Hi: g.Hi},
		}
	}
	r := rec.Request
	method, _ := r.method() // loadRelease validated the request
	requirement, err := ds.engine.AuditWith(obs.ContextWithSpan(context.Background(), sp), method,
		r.Model, core.Params{K: r.K, L: r.L, T: r.T, B: r.B}, res)
	if err != nil {
		s.metrics.PersistErrors.Add(1)
		return nil, false
	}
	s.metrics.PersistReleaseLoads.Add(1)
	return &releaseEntry{
		id:          id,
		ds:          ds,
		res:         res,
		req:         rec.Request,
		requirement: requirement,
		seconds:     rec.Seconds,
	}, true
}

// counts reports how many artifacts of each kind are persisted, for
// boot logging.
func (d *diskStore) counts() (schemas, datasets, releases int) {
	count := func(sub, prefix string) int {
		entries, err := os.ReadDir(filepath.Join(d.root, sub))
		if err != nil {
			return 0
		}
		n := 0
		for _, e := range entries {
			if id, ok := strings.CutSuffix(e.Name(), ".json"); ok && validID(prefix, id) {
				n++
			}
		}
		return n
	}
	return count("schemas", "sch"), count("datasets", "ds"), count("releases", "rel")
}
