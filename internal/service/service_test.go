package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adult"
	"repro/internal/dataset"
)

// post sends a JSON body and returns (status, response bytes).
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func mustJSON[T any](t *testing.T, b []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("unmarshal %q: %v", b, err)
	}
	return v
}

// newTestServer starts a service with the given pool size.
func newTestServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerCfg(t, Config{Workers: workers})
}

// newTestServerCfg starts a service with full configuration control.
func newTestServerCfg(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("draining job workers: %v", err)
		}
	})
	return s, ts
}

// createDataset synthesizes a dataset and returns its id.
func createDataset(t *testing.T, ts *httptest.Server, n int, seed int64) string {
	t.Helper()
	code, body := post(t, ts, "/v1/datasets", fmt.Sprintf(`{"n":%d,"seed":%d}`, n, seed))
	if code != http.StatusOK {
		t.Fatalf("datasets: status %d: %s", code, body)
	}
	return mustJSON[DatasetResponse](t, body).ID
}

// TestServiceHappyPath walks the full API: dataset → anonymize →
// cached anonymize → attack → risk → release metadata → metrics.
func TestServiceHappyPath(t *testing.T) {
	s, ts := newTestServer(t, 0)
	ds := createDataset(t, ts, 300, 1)

	anonBody := fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":3,"l":3}`, ds)
	code, body := post(t, ts, "/v1/anonymize", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, body)
	}
	first := mustJSON[AnonymizeResponse](t, body)
	if first.Cached {
		t.Fatal("first anonymize reported cached")
	}
	if first.Groups < 1 || first.Records != 300 {
		t.Fatalf("implausible release: %+v", first)
	}

	code, body = post(t, ts, "/v1/anonymize", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize repeat: status %d: %s", code, body)
	}
	second := mustJSON[AnonymizeResponse](t, body)
	if !second.Cached || second.Release != first.Release {
		t.Fatalf("repeat not served from store: %+v", second)
	}
	if got := s.metrics.PipelineRuns.Value(); got != 1 {
		t.Fatalf("pipeline ran %d times, want 1", got)
	}
	if got := s.metrics.StoreHits.Value(); got != 1 {
		t.Fatalf("store hits = %d, want 1", got)
	}

	code, body = post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, first.Release))
	if code != http.StatusOK {
		t.Fatalf("attack: status %d: %s", code, body)
	}
	att := mustJSON[AttackResponse](t, body)
	if att.Records != 300 || att.WorstRisk < att.P50Risk || att.WorstRisk <= 0 {
		t.Fatalf("implausible attack report: %+v", att)
	}

	code, body = post(t, ts, "/v1/risk", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, first.Release))
	if code != http.StatusOK {
		t.Fatalf("risk: status %d: %s", code, body)
	}
	risk := mustJSON[RiskResponse](t, body)
	if risk.WorstRisk != att.WorstRisk {
		t.Fatalf("risk %.6f != attack worst %.6f", risk.WorstRisk, att.WorstRisk)
	}

	code, body = get(t, ts, "/v1/releases/"+first.Release)
	if code != http.StatusOK {
		t.Fatalf("release info: status %d: %s", code, body)
	}
	info := mustJSON[ReleaseInfo](t, body)
	if info.ID != first.Release || info.Dataset != ds || info.Groups != first.Groups {
		t.Fatalf("release info mismatch: %+v vs %+v", info, first)
	}

	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	code, body = get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	snap := mustJSON[Snapshot](t, body)
	if snap.Requests < 7 || snap.Store.Releases != 1 || snap.Store.Datasets != 1 {
		t.Fatalf("implausible metrics: %+v", snap)
	}
}

// TestServiceErrors covers malformed JSON, unknown ids, bad params,
// and method misuse.
func TestServiceErrors(t *testing.T) {
	_, ts := newTestServer(t, -1)
	ds := createDataset(t, ts, 120, 3)

	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"malformed JSON", "/v1/anonymize", `{"dataset":`, http.StatusBadRequest},
		{"unknown field", "/v1/anonymize", `{"dataset":"x","bogus":1}`, http.StatusBadRequest},
		{"unknown dataset", "/v1/anonymize", `{"dataset":"ds_nope"}`, http.StatusNotFound},
		{"bad model", "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"zz"}`, ds), http.StatusBadRequest},
		{"bad algo", "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"algo":"zz"}`, ds), http.StatusBadRequest},
		{"bad t", "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"t":7}`, ds), http.StatusBadRequest},
		{"unknown release", "/v1/attack", `{"release":"rel_nope"}`, http.StatusNotFound},
		{"attack malformed", "/v1/attack", `nonsense`, http.StatusBadRequest},
		{"bad n", "/v1/datasets", `{"n":-5}`, http.StatusBadRequest},
	} {
		code, body := post(t, ts, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, code, tc.want, body)
		}
		if e := mustJSON[errorResponse](t, body); e.Error == "" {
			t.Errorf("%s: missing error message in %s", tc.name, body)
		}
	}

	if code, _ := get(t, ts, "/v1/releases/rel_nope"); code != http.StatusNotFound {
		t.Error("unknown release id should 404")
	}
	if code, _ := get(t, ts, "/v1/anonymize"); code != http.StatusMethodNotAllowed {
		t.Error("GET on POST endpoint should 405")
	}
}

// TestRetiredAlgorithmsRejected: Mondrian is the one algorithm, so an
// anonymize request naming anatomy or incognito is a 400 that names
// mondrian, whether it is sent sync, async or as an estimate query.
func TestRetiredAlgorithmsRejected(t *testing.T) {
	s, ts := newTestServer(t, -1)
	ds := createDataset(t, ts, 120, 3)
	for _, algo := range []string{"anatomy", "incognito"} {
		req := fmt.Sprintf(`{"dataset":%q,"algo":%q`, ds, algo)
		for _, tc := range []struct{ name, method, target, body string }{
			{"sync", http.MethodPost, "/v1/anonymize", req + `}`},
			{"async", http.MethodPost, "/v1/anonymize", req + `,"async":true}`},
			{"estimate", http.MethodGet, "/v1/estimate?op=anonymize&dataset=" + ds + "&algo=" + algo, ""},
		} {
			var code int
			var body []byte
			if tc.method == http.MethodGet {
				code, body = get(t, ts, tc.target)
			} else {
				code, body = post(t, ts, tc.target, tc.body)
			}
			if code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400: %s", algo, tc.name, code, body)
				continue
			}
			if e := mustJSON[errorResponse](t, body).Error; !strings.Contains(e, "mondrian") {
				t.Errorf("%s %s: error %q does not name mondrian", algo, tc.name, e)
			}
		}
	}
	if got := s.metrics.PipelineRuns.Value(); got != 0 {
		t.Errorf("pipeline runs = %d, want 0", got)
	}
}

// TestBPrimeValidation: an explicitly supplied bprime of 0 — or any
// out-of-range value — is a 400 whose message matches the actual
// (0, 1] check; only an *omitted* field takes the 0.3 default.
func TestBPrimeValidation(t *testing.T) {
	_, ts := newTestServer(t, -1)
	ds := createDataset(t, ts, 120, 3)
	code, body := post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q}`, ds))
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, body)
	}
	rel := mustJSON[AnonymizeResponse](t, body).Release

	for _, bad := range []string{"0", "-0.2", "1.5"} {
		code, body := post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":%s}`, rel, bad))
		if code != http.StatusBadRequest {
			t.Errorf("bprime=%s: status %d (want 400): %s", bad, code, body)
			continue
		}
		if e := mustJSON[errorResponse](t, body); !strings.Contains(e.Error, "(0, 1]") {
			t.Errorf("bprime=%s: message %q does not state the (0, 1] range", bad, e.Error)
		}
	}

	// Omitted → default 0.3; explicit 0.3 → identical response.
	code, omitted := post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q}`, rel))
	if code != http.StatusOK {
		t.Fatalf("attack without bprime: status %d: %s", code, omitted)
	}
	if resp := mustJSON[AttackResponse](t, omitted); resp.BPrime != 0.3 {
		t.Errorf("default bprime = %g, want 0.3", resp.BPrime)
	}
	code, explicit := post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":0.3}`, rel))
	if code != http.StatusOK || !bytes.Equal(omitted, explicit) {
		t.Errorf("explicit 0.3 differs from default:\nomitted:  %s\nexplicit: %s", omitted, explicit)
	}
}

// TestOversizedBodiesAre413: bodies that blow through their
// MaxBytesReader limit surface as 413 with the limit named, not as
// generic 400s — on the JSON endpoints, the schema endpoint, and the
// CSV upload path.
func TestOversizedBodiesAre413(t *testing.T) {
	_, ts := newTestServerCfg(t, Config{Workers: -1, MaxUploadBytes: 512})

	big := strings.Repeat("x", 2<<20)
	check := func(name, path, contentType, body string, wantLimit string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (want 413): %s", name, resp.StatusCode, b)
			return
		}
		if e := mustJSON[errorResponse](t, b); !strings.Contains(e.Error, wantLimit) {
			t.Errorf("%s: message %q does not name the %s-byte limit", name, e.Error, wantLimit)
		}
	}
	check("anonymize", "/v1/anonymize", "application/json", `{"pad":"`+big, "1048576")
	check("datasets", "/v1/datasets", "application/json", `{"pad":"`+big, "1048576")
	check("attack", "/v1/attack", "application/json", `{"pad":"`+big, "1048576")
	check("schemas", "/v1/schemas", "application/json", `{"pad":"`+big, "1048576")

	// A well-formed CSV whose bytes exceed the upload cap: the limit,
	// not a parse failure, must be what rejects it.
	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, adult.Generate(100, 1)); err != nil {
		t.Fatal(err)
	}
	if csvBuf.Len() <= 512 {
		t.Fatalf("test CSV only %d bytes, want > 512", csvBuf.Len())
	}
	check("csv upload", "/v1/datasets", "text/csv", csvBuf.String(), "512")
}

// TestServiceCSVUpload round-trips a generated table through the CSV
// ingestion path and checks content addressing dedups a re-upload.
func TestServiceCSVUpload(t *testing.T) {
	_, ts := newTestServer(t, -1)
	table := adult.Generate(150, 9)
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, table); err != nil {
		t.Fatal(err)
	}
	csvBytes := buf.Bytes()

	upload := func() DatasetResponse {
		resp, err := http.Post(ts.URL+"/v1/datasets", "text/csv", bytes.NewReader(csvBytes))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload status %d: %s", resp.StatusCode, b)
		}
		return mustJSON[DatasetResponse](t, b)
	}
	first := upload()
	if first.Records != 150 || first.Cached {
		t.Fatalf("first upload: %+v", first)
	}
	second := upload()
	if second.ID != first.ID || !second.Cached {
		t.Fatalf("re-upload not content-addressed: %+v vs %+v", second, first)
	}

	// The uploaded dataset is fully usable downstream.
	code, body := post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q}`, first.ID))
	if code != http.StatusOK {
		t.Fatalf("anonymize upload: status %d: %s", code, body)
	}
}

// TestConcurrentAnonymizeRunsPipelineOnce is the store's singleflight
// guarantee end to end: many concurrent identical requests, one
// pipeline execution, everyone gets the same release id.
func TestConcurrentAnonymizeRunsPipelineOnce(t *testing.T) {
	s, ts := newTestServer(t, 0)
	ds := createDataset(t, ts, 400, 5)
	body := fmt.Sprintf(`{"dataset":%q,"model":"bt"}`, ds)

	const callers = 8
	ids := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, b := post(t, ts, "/v1/anonymize", body)
			if code != http.StatusOK {
				t.Errorf("caller %d: status %d: %s", i, code, b)
				return
			}
			ids[i] = mustJSON[AnonymizeResponse](t, b).Release
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("caller %d got release %q, caller 0 got %q", i, ids[i], ids[0])
		}
	}
	if got := s.metrics.PipelineRuns.Value(); got != 1 {
		t.Fatalf("pipeline ran %d times for %d concurrent identical requests, want 1", got, callers)
	}
}

// TestReleaseStoreEvictionEndToEnd fills a capacity-2 store with three
// releases and checks the first is evicted, attacks on it 404, and a
// re-request recomputes.
func TestReleaseStoreEvictionEndToEnd(t *testing.T) {
	s, ts := newTestServerCfg(t, Config{Workers: -1, ReleaseCap: 2})
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
	rel("tclose") // evicts the distinct release

	if got := s.metrics.StoreEvictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if code, _ := get(t, ts, "/v1/releases/"+first); code != http.StatusNotFound {
		t.Fatal("evicted release should 404")
	}
	if code, _ := post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q}`, first)); code != http.StatusNotFound {
		t.Fatal("attack on evicted release should 404")
	}
	// Re-requesting rebuilds (a store miss, not a hit).
	code, b := post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"distinct"}`, ds))
	if code != http.StatusOK {
		t.Fatalf("re-anonymize: status %d: %s", code, b)
	}
	if resp := mustJSON[AnonymizeResponse](t, b); resp.Cached || resp.Release != first {
		t.Fatalf("re-request after eviction: %+v (want fresh compute, same content address %q)", resp, first)
	}
}

// TestAnonymizeResidentReleaseAfterDatasetEviction checks that a
// resident release answers anonymize requests after the dataset store
// evicted its dataset: the release entry carries the dataset, so both
// the sync path and the async born-done path serve it from the store
// (counted as hits) instead of 404ing on the dataset lookup.
func TestAnonymizeResidentReleaseAfterDatasetEviction(t *testing.T) {
	s, ts := newTestServerCfg(t, Config{Workers: -1, DatasetCap: 1})
	dsA := createDataset(t, ts, 150, 1)
	body := fmt.Sprintf(`{"dataset":%q,"model":"distinct"}`, dsA)
	code, b := post(t, ts, "/v1/anonymize", body)
	if code != http.StatusOK {
		t.Fatalf("anonymize A: status %d: %s", code, b)
	}
	rel := mustJSON[AnonymizeResponse](t, b).Release
	createDataset(t, ts, 150, 2) // evicts dataset A

	hits := s.metrics.StoreHits.Value()
	code, b = post(t, ts, "/v1/anonymize", body)
	if code != http.StatusOK {
		t.Fatalf("anonymize A after its dataset was evicted: status %d: %s", code, b)
	}
	if resp := mustJSON[AnonymizeResponse](t, b); !resp.Cached || resp.Release != rel || resp.Dataset != dsA {
		t.Fatalf("sync re-request: %+v, want a cached hit on %s", resp, rel)
	}
	code, b = post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"distinct","async":true}`, dsA))
	if code != http.StatusAccepted {
		t.Fatalf("async anonymize A: status %d: %s", code, b)
	}
	if j := mustJSON[JobResponse](t, b); j.State != string(jobDone) || j.Release != rel {
		t.Fatalf("async re-request: %+v, want a born-done job for %s", j, rel)
	}
	if got := s.metrics.StoreHits.Value() - hits; got != 2 {
		t.Fatalf("store hits = %d, want 2 (sync and async)", got)
	}
	if got := s.metrics.PipelineRuns.Value(); got != 1 {
		t.Fatalf("pipeline runs = %d, want 1", got)
	}
}

// TestAttackDeterministicAcrossWorkers asserts the serving path's
// determinism guarantee: attack and risk response bodies are
// byte-identical between a sequential server and an all-cores server.
func TestAttackDeterministicAcrossWorkers(t *testing.T) {
	_, seqTS := newTestServer(t, -1)
	_, parTS := newTestServer(t, 0)

	run := func(ts *httptest.Server) (attack, risk []byte) {
		ds := createDataset(t, ts, 400, 7)
		code, b := post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"bt"}`, ds))
		if code != http.StatusOK {
			t.Fatalf("anonymize: status %d: %s", code, b)
		}
		rel := mustJSON[AnonymizeResponse](t, b).Release
		code, attack = post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel))
		if code != http.StatusOK {
			t.Fatalf("attack: status %d: %s", code, attack)
		}
		code, risk = post(t, ts, "/v1/risk", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel))
		if code != http.StatusOK {
			t.Fatalf("risk: status %d: %s", code, risk)
		}
		return attack, risk
	}
	seqAttack, seqRisk := run(seqTS)
	parAttack, parRisk := run(parTS)
	if !bytes.Equal(seqAttack, parAttack) {
		t.Fatalf("attack bodies differ across workers:\nseq: %s\npar: %s", seqAttack, parAttack)
	}
	if !bytes.Equal(seqRisk, parRisk) {
		t.Fatalf("risk bodies differ across workers:\nseq: %s\npar: %s", seqRisk, parRisk)
	}
}
