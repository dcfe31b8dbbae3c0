package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestShortRuns runs every workload for one second, untraced and
// traced: no operation may fail, and each run reports exactly the
// metrics BENCHMARK.json declares for its mode.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the service and drives it over HTTP")
	}
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: w, seed: 7, window: time.Second, trace: trace,
				readRate: 70, setups: 1,
				spansPath: filepath.Join(t.TempDir(), "spans.jsonl"),
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			got := sortedKeys(res.Metrics)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w, trace, got, want)
				continue
			}
			for i := range got {
				m := res.Metrics[got[i]]
				switch {
				case got[i] != want[i]:
					t.Errorf("%s trace=%v: metric %q, want %q", w, trace, got[i], want[i])
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, trace, got[i], m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, got[i], m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(cfg.spansPath); err != nil {
					t.Errorf("%s: spans not written: %v", w, err)
				}
			}
		}
	}
}

// TestCorruptedResponseCounted routes requests through a proxy that
// alters one field of the attack and anonymize replies: the warm read
// and the onboarding flow it touches must both count as failed, while
// the same requests to the real server pass.
func TestCorruptedResponseCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the service and drives it over HTTP")
	}
	cfg := config{workload: mixed, seed: 5, setups: 1}
	warmCSVs, err := warmTableCSVs(cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	flowCSV, err := tableCSV(tableSeed(cfg.seed, streamWarmup, 0))
	if err != nil {
		t.Fatal(err)
	}
	e, err := setup(cfg, warmCSVs, flowCSV)
	if err != nil {
		t.Fatal(err)
	}
	defer e.srv.close()
	if err := e.verifySetup(); err != nil {
		t.Fatal(err)
	}

	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		e.srv.svc.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		switch r.URL.Path {
		case "/v1/attack":
			body = bytes.Replace(body, []byte(`"records":`), []byte(`"records":1`), 1)
		case "/v1/anonymize":
			body = bytes.Replace(body, []byte(`"groups":`), []byte(`"groups":1`), 1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer proxy.Close()
	bad := &server{svc: e.srv.svc, base: proxy.URL, client: proxy.Client()}

	if _, ok := e.warm.read(e.srv, readAttack, 0, 0); !ok {
		t.Fatal("warm attack against the real server did not match")
	}
	_, ok := e.warm.read(bad, readAttack, 0, 0)
	w := window{reads: []readSample{{kind: readAttack, ok: ok}}}
	if a, f, _ := w.countReads(); a != 1 || f != 1 {
		t.Errorf("corrupted read: attempted=%d failed=%d, want 1/1", a, f)
	}

	// A fresh table, so the anonymize reply is computed, not a hit.
	seed := tableSeed(cfg.seed, streamFlow, 0)
	csv, err := tableCSV(seed)
	if err != nil {
		t.Fatal(err)
	}
	w = window{flows: []flow{runFlow(bad, seed, csv, nil)}}
	if a, f, errs := w.verifyFlows(); a != 1 || f != 1 {
		t.Errorf("corrupted flow: attempted=%d failed=%d (%v), want 1/1", a, f, errs)
	}
	seed = tableSeed(cfg.seed, streamFlow, 1)
	if csv, err = tableCSV(seed); err != nil {
		t.Fatal(err)
	}
	w = window{flows: []flow{runFlow(e.srv, seed, csv, nil)}}
	if _, f, errs := w.verifyFlows(); f != 0 {
		t.Errorf("real flow failed verification: %v", errs)
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// overlapping children count once, a child running past its parent is
// clipped, and grandchildren are charged to their own parent only.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 6, Name: "other", Start: 0, End: 7},
		{ID: 7, Parent: 6, Name: "b", Start: 1, End: 3},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 5, 7: 2}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	// Layer totals count only spans under the given root.
	if calls, ns := layerStats(spans, self, 1, "b"); calls != 2 || ns != 60 {
		t.Errorf("layer b under root: %d calls, %d ns; want 2, 60", calls, ns)
	}
	if calls, ns := layerStats(spans, self, 1, "leaf"); calls != 1 || ns != 5 {
		t.Errorf("layer leaf under root: %d calls, %d ns; want 1, 5", calls, ns)
	}
}

// TestRecorderNesting checks that spans opened inside another span
// become its children, and that a nil recorder records nothing.
func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	outer := r.open("outer")
	inner := r.open("inner")
	r.close(inner)
	r.close(outer)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != outer || spans[0].Parent != 0 {
		t.Fatalf("spans %+v: want inner under outer", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("inner %+v not inside outer %+v", spans[1], spans[0])
	}
	var nilRec *recorder
	if id := nilRec.open("x"); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	nilRec.close(0)
	if nilRec.snapshot() != nil {
		t.Error("nil recorder kept spans")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

// sortedKeys returns a metric map's names in order.
func sortedKeys(m metrics) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSlicing checks the sliced statistics on hand-placed operations:
// an operation straddling a slice boundary counts into both slices by
// its share of time in each, and the tail is the median of the slices'
// own tails.
func TestSlicing(t *testing.T) {
	t0 := time.Unix(1000, 0)
	sl := sliceWindow(t0, 3*sliceLen)
	if sl.n != 3 || sl.len != sliceLen {
		t.Fatalf("slicing %+v: want 3 slices of %v", sl, sliceLen)
	}
	at := func(d time.Duration, lat time.Duration) op { return op{start: t0.Add(d), lat: lat} }
	ms := time.Millisecond
	ops := []op{
		// slice 0: two whole operations plus half of a straddling one
		at(0, 100*ms), at(500*ms, 100*ms), at(sliceLen-50*ms, 100*ms),
		// slice 1: the other half, and four whole operations
		at(sliceLen+100*ms, 10*ms), at(sliceLen+200*ms, 20*ms), at(sliceLen+300*ms, 30*ms), at(sliceLen+400*ms, 40*ms),
		// slice 2: one operation, running past the window's end by half
		at(3*sliceLen-100*ms, 200*ms),
	}
	secs := sliceLen.Seconds()
	if got, want := sl.rate(ops), 2.5/secs; math.Abs(got-want) > 1e-9 {
		t.Errorf("rate = %v, want the median slice's %v (slices %v, %v, %v)", got, want, 2.5/secs, 4.5/secs, 0.5/secs)
	}
	// Started per slice: {100, 100, 100}, {10, 20, 30, 40}, {200} ms.
	if got := sl.quantile(ops, 0.5); got != 100 {
		t.Errorf("sliced median = %v, want 100", got)
	}
	if got := sl.quantile(ops, 0.99); got != 100 {
		t.Errorf("sliced p99 = %v, want 100 (slice tails 100, 40, 200)", got)
	}
	if one := sliceWindow(t0, sliceLen/2); one.n != 1 || one.len != sliceLen/2 {
		t.Errorf("short window sliced as %+v, want one slice", one)
	}
}
