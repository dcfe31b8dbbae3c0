package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adult"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// diskServer boots a server persisting to dir.
func diskServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerCfg(t, Config{Workers: -1, DataDir: dir})
}

// TestRestartRecoveryByteIdentical is the durability guarantee end to
// end: releases computed before a restart are served by a fresh
// process on the same data dir with byte-identical responses and zero
// pipeline runs — the release loads from disk and its dataset rebuilds
// deterministically (a dataset build, never a pipeline run).
func TestRestartRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	attackBody := func(rel string) string {
		return fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel)
	}

	s1, ts1 := diskServer(t, dir)
	ds := createDataset(t, ts1, 300, 1)
	anonBody := fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":3,"l":3}`, ds)
	code, body := post(t, ts1, "/v1/anonymize", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, body)
	}
	rel := mustJSON[AnonymizeResponse](t, body).Release
	// The cached (second-call) anonymize body is what a warm restart
	// must reproduce: same release, cached=true, same stored seconds.
	_, cachedAnon := post(t, ts1, "/v1/anonymize", anonBody)
	_, relInfo := get(t, ts1, "/v1/releases/"+rel)
	_, attack := post(t, ts1, "/v1/attack", attackBody(rel))
	if s1.metrics.PersistWrites.Value() < 2 {
		t.Fatalf("persist writes = %d, want dataset manifest + release",
			s1.metrics.PersistWrites.Value())
	}
	ts1.Close()

	s2, ts2 := diskServer(t, dir)
	code, gotInfo := get(t, ts2, "/v1/releases/"+rel)
	if code != http.StatusOK {
		t.Fatalf("release after restart: status %d: %s", code, gotInfo)
	}
	if !bytes.Equal(gotInfo, relInfo) {
		t.Errorf("release info differs after restart:\npre:  %s\npost: %s", relInfo, gotInfo)
	}
	code, gotAttack := post(t, ts2, "/v1/attack", attackBody(rel))
	if code != http.StatusOK {
		t.Fatalf("attack after restart: status %d: %s", code, gotAttack)
	}
	if !bytes.Equal(gotAttack, attack) {
		t.Errorf("attack differs after restart:\npre:  %s\npost: %s", attack, gotAttack)
	}
	code, gotAnon := post(t, ts2, "/v1/anonymize", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize after restart: status %d: %s", code, gotAnon)
	}
	if !bytes.Equal(gotAnon, cachedAnon) {
		t.Errorf("anonymize differs after restart:\npre:  %s\npost: %s", cachedAnon, gotAnon)
	}
	if got := s2.metrics.PipelineRuns.Value(); got != 0 {
		t.Errorf("warm path ran the pipeline %d times, want 0", got)
	}
	if got := s2.metrics.PersistReleaseLoads.Value(); got != 1 {
		t.Errorf("release loads = %d, want 1", got)
	}
	if got := s2.metrics.DatasetBuilds.Value(); got != 1 {
		t.Errorf("dataset builds = %d, want 1 (engine rebuild)", got)
	}
}

// TestRestartConcurrentLookupsShareOneRecovery fires concurrent
// anonymize, attack, and GET-release requests for one persisted release
// at a freshly restarted server: disk recovery and the anonymize's
// resolution are one flight per id, so the release loads from disk
// once, its dataset builds once, and the pipeline never runs.
func TestRestartConcurrentLookupsShareOneRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := diskServer(t, dir)
	ds := createDataset(t, ts1, 2000, 4)
	anonBody := fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":3,"l":3}`, ds)
	code, body := post(t, ts1, "/v1/anonymize", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, body)
	}
	rel := mustJSON[AnonymizeResponse](t, body).Release
	ts1.Close()

	s2, ts2 := diskServer(t, dir)
	// The client re-registers its dataset first, so the requests below
	// race on the release alone.
	if got := createDataset(t, ts2, 2000, 4); got != ds {
		t.Fatalf("dataset id changed across the restart: %s -> %s", ds, got)
	}
	calls := []func() (int, []byte){
		func() (int, []byte) { return post(t, ts2, "/v1/anonymize", anonBody) },
		func() (int, []byte) {
			return post(t, ts2, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel))
		},
		func() (int, []byte) { return get(t, ts2, "/v1/releases/"+rel) },
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4*len(calls); i++ {
		wg.Add(1)
		go func(call func() (int, []byte)) {
			defer wg.Done()
			<-start
			if code, body := call(); code != http.StatusOK {
				t.Errorf("status %d: %s", code, body)
			}
		}(calls[i%len(calls)])
	}
	close(start)
	wg.Wait()
	m := s2.metrics
	if got := m.PersistReleaseLoads.Value(); got != 1 {
		t.Errorf("release loads = %d, want 1", got)
	}
	if got := m.DatasetBuilds.Value(); got != 1 {
		t.Errorf("dataset builds = %d, want 1", got)
	}
	if got := m.PipelineRuns.Value(); got != 0 {
		t.Errorf("pipeline runs = %d, want 0", got)
	}
}

// TestComputeThroughRetriesSharedLookupMiss: a lookup whose disk
// recovery finds nothing fails its flight, and a caller that builds the
// value must not inherit that miss when it shares the flight — it
// retries and computes.
func TestComputeThroughRetriesSharedLookupMiss(t *testing.T) {
	c := parallel.NewCache[int](4)
	inLookup, release := make(chan struct{}), make(chan struct{})
	lookupErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (int, error) {
			close(inLookup)
			<-release
			return 0, errNotPersisted
		})
		lookupErr <- err
	}()
	<-inLookup
	type result struct {
		v   int
		err error
	}
	computed := make(chan result, 1)
	go func() {
		v, _, err := computeThrough(c, "k", func() (int, error) { return 7, nil })
		computed <- result{v, err}
	}()
	// Let the computing caller park on the lookup's flight.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-lookupErr; !errors.Is(err, errNotPersisted) {
		t.Fatalf("lookup got %v, want errNotPersisted", err)
	}
	if r := <-computed; r.v != 7 || r.err != nil {
		t.Fatalf("computeThrough got (%d, %v), want (7, nil)", r.v, r.err)
	}
	if v, ok := c.Get("k"); !ok || v != 7 {
		t.Fatalf("cache holds (%d, %v) after the computation", v, ok)
	}
}

// TestRestartRecoveryCSVDataset covers the uploaded-dataset manifest:
// the raw CSV bytes are retained and re-decoded after a restart, and
// attacks against the recovered release are byte-identical.
func TestRestartRecoveryCSVDataset(t *testing.T) {
	dir := t.TempDir()
	table := adult.Generate(150, 9)
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, table); err != nil {
		t.Fatal(err)
	}

	_, ts1 := diskServer(t, dir)
	resp, err := http.Post(ts1.URL+"/v1/datasets", "text/csv", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, b)
	}
	ds := mustJSON[DatasetResponse](t, b).ID
	code, body := post(t, ts1, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q}`, ds))
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, body)
	}
	rel := mustJSON[AnonymizeResponse](t, body).Release
	_, attack := post(t, ts1, "/v1/attack", fmt.Sprintf(`{"release":%q}`, rel))
	ts1.Close()

	s2, ts2 := diskServer(t, dir)
	code, gotAttack := post(t, ts2, "/v1/attack", fmt.Sprintf(`{"release":%q}`, rel))
	if code != http.StatusOK {
		t.Fatalf("attack after restart: status %d: %s", code, gotAttack)
	}
	if !bytes.Equal(gotAttack, attack) {
		t.Errorf("attack differs after restart:\npre:  %s\npost: %s", attack, gotAttack)
	}
	if got := s2.metrics.PipelineRuns.Value(); got != 0 {
		t.Errorf("warm path ran the pipeline %d times, want 0", got)
	}
}

// TestEvictionFallsThroughToDisk: with a durable tier, LRU eviction no
// longer loses work — an evicted release is served from disk instead
// of 404ing, without a pipeline rerun.
func TestEvictionFallsThroughToDisk(t *testing.T) {
	s, ts := newTestServerCfg(t, Config{Workers: -1, ReleaseCap: 2, DataDir: t.TempDir()})
	ds := createDataset(t, ts, 120, 11)

	rel := func(model string) string {
		code, b := post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":%q}`, ds, model))
		if code != http.StatusOK {
			t.Fatalf("anonymize %s: status %d: %s", model, code, b)
		}
		return mustJSON[AnonymizeResponse](t, b).Release
	}
	first := rel("distinct")
	rel("prob")
	rel("tclose") // evicts the distinct release from memory
	if got := s.metrics.StoreEvictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	if code, b := get(t, ts, "/v1/releases/"+first); code != http.StatusOK {
		t.Fatalf("evicted release should load from disk, got %d: %s", code, b)
	}
	if code, b := post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q}`, first)); code != http.StatusOK {
		t.Fatalf("attack on evicted release should work from disk, got %d: %s", code, b)
	}
	if got := s.metrics.PipelineRuns.Value(); got != 3 {
		t.Fatalf("pipeline runs = %d, want 3 (no recompute after eviction)", got)
	}
	if got := s.metrics.PersistReleaseLoads.Value(); got != 1 {
		t.Fatalf("release loads = %d, want 1", got)
	}
}

// TestCorruptFilesDegradeToRecompute: a torn or tampered file on disk
// must never surface as a 500 — reads treat it as absent, GETs 404,
// and anonymize recomputes (and rewrites) the release.
func TestCorruptFilesDegradeToRecompute(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := diskServer(t, dir)
	ds := createDataset(t, ts1, 150, 3)
	anonBody := fmt.Sprintf(`{"dataset":%q,"model":"distinct"}`, ds)
	code, body := post(t, ts1, "/v1/anonymize", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, body)
	}
	rel := mustJSON[AnonymizeResponse](t, body).Release
	ts1.Close()

	relPath := filepath.Join(dir, "releases", rel+".json")
	valid, err := os.ReadFile(relPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(relPath, []byte(`{"id":"garbage`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A structurally valid record written under the wrong id must fail
	// the content-address check, not serve someone else's release.
	alias := filepath.Join(dir, "releases", "rel_deadbeefdeadbeef.json")
	if err := os.WriteFile(alias, valid, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := diskServer(t, dir)
	if code, _ := get(t, ts2, "/v1/releases/"+rel); code != http.StatusNotFound {
		t.Errorf("corrupt release file should 404, got %d", code)
	}
	if code, _ := get(t, ts2, "/v1/releases/rel_deadbeefdeadbeef"); code != http.StatusNotFound {
		t.Errorf("mis-addressed release file should 404, got %d", code)
	}
	code, body = post(t, ts2, "/v1/anonymize", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize over corrupt file: status %d: %s", code, body)
	}
	resp := mustJSON[AnonymizeResponse](t, body)
	if resp.Cached || resp.Release != rel {
		t.Errorf("expected fresh recompute at the same address: %+v", resp)
	}
	if got := s2.metrics.PipelineRuns.Value(); got != 1 {
		t.Errorf("pipeline runs = %d, want 1 (recompute)", got)
	}
	if got := s2.metrics.PersistErrors.Value(); got == 0 {
		t.Error("corruption was not counted as a persist error")
	}
	// The recompute wrote the release back; it now recovers cleanly.
	if fixed, err := os.ReadFile(relPath); err != nil || !bytes.Equal(fixed[:8], valid[:8]) {
		t.Errorf("release file was not healed by the recompute (err=%v)", err)
	}

	// Corrupting the dataset manifest degrades anonymize to 404 (the
	// dataset is unknown), not 500.
	ts2.Close()
	if err := os.WriteFile(filepath.Join(dir, "datasets", ds+".json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts3 := diskServer(t, dir)
	if code, b := post(t, ts3, "/v1/anonymize", anonBody); code != http.StatusNotFound {
		t.Errorf("anonymize on corrupt dataset manifest: status %d (want 404): %s", code, b)
	}
}

// TestRecoveredReleaseRequestIsValidated: a persisted release is served
// only if it passes the audit a computed release passes, against the
// requirement rebuilt from its content-addressed request. Each forged
// record below is absent (404) and counted as a persist error: a
// request naming no model, an unhashed dataset field that disagrees
// with the request's (naming another upload of the same table, so the
// partition itself still fits), a requirement label that is not the
// rebuilt requirement's name, and a one-group Mondrian (B,t) release
// whose group fails (B,t) at the forged request's t.
func TestRecoveredReleaseRequestIsValidated(t *testing.T) {
	cases := []struct {
		name, model string
		forge       func(rec *releaseRecord, otherDataset string)
	}{
		{"unknown model", "distinct", func(rec *releaseRecord, _ string) {
			rec.Request.Model = "nope"
			rec.ID = hashID("rel", rec.Request.key())
		}},
		{"dataset field differs", "distinct", func(rec *releaseRecord, other string) { rec.Dataset = other }},
		{"requirement label differs", "distinct", func(rec *releaseRecord, _ string) {
			rec.Requirement = "3-anonymity+distinct-2-diversity"
		}},
		{"one group fails (B,t)", "bt", func(rec *releaseRecord, _ string) {
			rec.Request.T = 0.0001
			rec.ID = hashID("rel", rec.Request.key())
			rec.Requirement = strings.Replace(rec.Requirement, ",0.25)-privacy", ",0.0001)-privacy", 1)
			all := groupRecord{Lo: rec.Groups[0].Lo, Hi: rec.Groups[0].Hi}
			for _, g := range rec.Groups {
				all.Rows = append(all.Rows, g.Rows...)
				for i := range all.Lo {
					all.Lo[i], all.Hi[i] = min(all.Lo[i], g.Lo[i]), max(all.Hi[i], g.Hi[i])
				}
			}
			rec.Groups = []groupRecord{all}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, ts1 := diskServer(t, dir)
			// Two uploads of one table whose bytes differ only in a
			// trailing blank line: two dataset ids, identical records.
			var csvBody bytes.Buffer
			if err := dataset.WriteCSV(&csvBody, adult.Generate(150, 3)); err != nil {
				t.Fatal(err)
			}
			upload := func(body string) string {
				resp, err := http.Post(ts1.URL+"/v1/datasets", "text/csv", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				return mustJSON[DatasetResponse](t, b).ID
			}
			ds, other := upload(csvBody.String()), upload(csvBody.String()+"\n")
			code, body := post(t, ts1, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":%q}`, ds, tc.model))
			if code != http.StatusOK {
				t.Fatalf("anonymize: status %d: %s", code, body)
			}
			rel := mustJSON[AnonymizeResponse](t, body).Release
			ts1.Close()

			doc, err := os.ReadFile(filepath.Join(dir, "releases", rel+".json"))
			if err != nil {
				t.Fatal(err)
			}
			rec := mustJSON[releaseRecord](t, doc)
			tc.forge(&rec, other)
			forged, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "releases", rec.ID+".json"), forged, 0o644); err != nil {
				t.Fatal(err)
			}
			s2, ts2 := diskServer(t, dir)
			if code, b := post(t, ts2, "/v1/attack", fmt.Sprintf(`{"release":%q}`, rec.ID)); code != http.StatusNotFound {
				t.Errorf("attack on the forged release: status %d (want 404): %s", code, b)
			}
			if got := s2.metrics.PersistErrors.Value(); got == 0 {
				t.Error("the forged record was not counted as a persist error")
			}
		})
	}
}

// TestRetiredAlgorithmReleasesReadAsAbsent: a data directory written
// before Mondrian became the one algorithm may hold anatomy or
// incognito releases. Their requests no longer validate, so each
// reads as absent: the release lookup and an attack on it answer 404,
// never 500, and every failed recovery counts as a persist error.
func TestRetiredAlgorithmReleasesReadAsAbsent(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := diskServer(t, dir)
	ds := createDataset(t, ts1, 120, 3)
	code, body := post(t, ts1, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"distinct"}`, ds))
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, body)
	}
	doc, err := os.ReadFile(filepath.Join(dir, "releases", mustJSON[AnonymizeResponse](t, body).Release+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, algo := range []string{"anatomy", "incognito"} {
		rec := mustJSON[releaseRecord](t, doc)
		rec.Request.Algo, rec.Algorithm = algo, algo
		rec.ID = hashID("rel", rec.Request.key())
		if err := s1.disk.saveRelease(rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	ts1.Close()

	s2, ts2 := diskServer(t, dir)
	for _, id := range ids {
		before := s2.metrics.PersistErrors.Value()
		if code, b := get(t, ts2, "/v1/releases/"+id); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404: %s", id, code, b)
		}
		if code, b := post(t, ts2, "/v1/attack", fmt.Sprintf(`{"release":%q}`, id)); code != http.StatusNotFound {
			t.Errorf("attack %s: status %d, want 404: %s", id, code, b)
		}
		if got := s2.metrics.PersistErrors.Value() - before; got != 2 {
			t.Errorf("%s: %d persist errors over two lookups, want 2", id, got)
		}
	}
	if got := s2.metrics.PersistReleaseLoads.Value(); got != 0 {
		t.Errorf("release loads = %d, want 0", got)
	}
}

// TestRestartRecoverySchemas: specs registered over HTTP persist and
// resolve after a restart, so datasets under them stay rebuildable.
func TestRestartRecoverySchemas(t *testing.T) {
	dir := t.TempDir()
	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "schemas", "hospital.json"))
	if err != nil {
		t.Skipf("example spec unavailable: %v", err)
	}
	_, ts1 := diskServer(t, dir)
	code, body := post(t, ts1, "/v1/schemas", string(doc))
	if code != http.StatusOK {
		t.Fatalf("register: status %d: %s", code, body)
	}
	reg := mustJSON[SchemaRegisterResponse](t, body)
	code, body = post(t, ts1, "/v1/datasets", fmt.Sprintf(`{"n":200,"seed":4,"schema":%q}`, reg.ID))
	if code != http.StatusOK {
		t.Fatalf("synthesize: status %d: %s", code, body)
	}
	ds := mustJSON[DatasetResponse](t, body).ID
	code, body = post(t, ts1, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q}`, ds))
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, body)
	}
	rel := mustJSON[AnonymizeResponse](t, body).Release
	ts1.Close()

	s2, ts2 := diskServer(t, dir)
	if _, id, ok := s2.schemas.Resolve(reg.ID); !ok || id != reg.ID {
		t.Fatalf("schema %s did not survive the restart", reg.ID)
	}
	if code, b := post(t, ts2, "/v1/attack", fmt.Sprintf(`{"release":%q}`, rel)); code != http.StatusOK {
		t.Fatalf("attack after restart: status %d: %s", code, b)
	}
	if got := s2.metrics.PipelineRuns.Value(); got != 0 {
		t.Errorf("warm path ran the pipeline %d times, want 0", got)
	}
}

// TestValidID pins the id sanitization that keeps URL-supplied ids
// from becoming path traversal on the durable tier.
func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"rel_0123456789abcdef": true,
		"rel_deadbeef":         true,
		"rel_":                 false,
		"rel_DEADBEEF":         false,
		"ds_0011":              false, // wrong prefix for "rel"
		"rel_..":               false,
		"rel_a/b":              false,
		"../etc/passwd":        false,
		"":                     false,
	} {
		if got := validID("rel", id); got != want {
			t.Errorf("validID(rel, %q) = %v, want %v", id, got, want)
		}
	}
	if !validID("ds", "ds_0011aaff") || !validID("sch", "sch_00") {
		t.Error("prefix matching broken for ds/sch")
	}
}
