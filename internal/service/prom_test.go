package service

import (
	"bytes"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/obs"
)

// promSampleLine matches one OpenMetrics sample: name, optional label
// set, one value. Comment lines (# TYPE/# HELP/# EOF) are checked
// separately.
var promSampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$`)

// TestRenderPromDeterministicAndEscaped feeds the renderer a snapshot
// with hostile label values and unsorted maps, and checks the output is
// byte-identical across renders, escapes per the exposition format, and
// terminates with # EOF.
func TestRenderPromDeterministicAndEscaped(t *testing.T) {
	evil := "POST /v1/\"x\"\\y\nz"
	s := Snapshot{
		UptimeSeconds: 1.5,
		Requests:      7,
		Endpoints: map[string]EndpointStats{
			evil:              {Count: 3, Errors: 1, P50Milli: 2, P99Milli: 4},
			"GET /v1/healthz": {Count: 9},
		},
		Stages: map[string]obs.StageStats{
			"mondrian":  {Count: 2, TotalSeconds: 0.01, Buckets: []obs.HistBucket{{LeMicros: 4096, Count: 2}}},
			"inference": {Count: 1, TotalSeconds: 0.002, Buckets: []obs.HistBucket{{LeMicros: 2048, Count: 1}}},
		},
		CostModel: map[string]costmodel.Fit{
			"mondrian":  {Formula: "n*log2(n)*d", A: 0.1, B: 12, R2: 0.99, MedAbsRelErr: 0.05, Samples: 2},
			"inference": {Formula: "rows*lanes", A: 0.2, B: 3, R2: 1, Samples: 1},
		},
	}
	// The process-health block samples live runtime/metrics, so it is
	// the one part allowed to differ between renders; everything derived
	// from the snapshot must be byte-identical.
	stripProcess := func(b []byte) string {
		var kept []string
		for _, line := range strings.Split(string(b), "\n") {
			if strings.Contains(line, "repro_process_") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	a, b := renderProm(s), renderProm(s)
	if stripProcess(a) != stripProcess(b) {
		t.Fatal("renderProm is not byte-deterministic for the same snapshot")
	}
	out := string(a)
	want := `endpoint="POST /v1/\"x\"\\y\nz"`
	if !strings.Contains(out, want) {
		t.Fatalf("output lacks escaped label %q:\n%s", want, out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("output does not end with # EOF:\n...%s", out[len(out)-80:])
	}
	if strings.Count(out, "# EOF") != 1 {
		t.Fatal("# EOF must appear exactly once")
	}
	// Sorted map walks: inference's families render before mondrian's.
	if strings.Index(out, `stage="inference"`) > strings.Index(out, `stage="mondrian"`) {
		t.Fatal("stage families are not sorted")
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
	}
}

// TestRenderPromStageHistogram checks the le-bucket conversion:
// cumulative counts, le boundaries in seconds, and the overflow-bearing
// top bin folded into +Inf instead of being emitted under its nominal
// (false) boundary.
func TestRenderPromStageHistogram(t *testing.T) {
	s := Snapshot{Stages: map[string]obs.StageStats{
		"priors": {Count: 10, TotalSeconds: 0.5, Buckets: []obs.HistBucket{
			{LeMicros: 2, Count: 3},
			{LeMicros: 8, Count: 2},
			{LeMicros: maxLeMicros, Count: 5},
		}},
	}}
	out := string(renderProm(s))
	for _, want := range []string{
		`repro_stage_duration_seconds_bucket{stage="priors",le="2e-06"} 3`,
		`repro_stage_duration_seconds_bucket{stage="priors",le="8e-06"} 5`,
		`repro_stage_duration_seconds_bucket{stage="priors",le="+Inf"} 10`,
		`repro_stage_duration_seconds_sum{stage="priors"} 0.5`,
		`repro_stage_duration_seconds_count{stage="priors"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
	top := strconv.FormatFloat(float64(maxLeMicros)/1e6, 'g', -1, 64)
	if strings.Contains(out, `le="`+top+`"`) {
		t.Fatalf("top bucket leaked its nominal boundary %s instead of folding into +Inf", top)
	}
	assertHistogramsMonotone(t, out)
}

// assertHistogramsMonotone parses every *_bucket family and checks
// cumulative counts never decrease as le increases (in emission order,
// which the renderer guarantees is ascending le).
func assertHistogramsMonotone(t *testing.T, out string) {
	t.Helper()
	last := map[string]int64{} // family+labels-minus-le → last cum
	for _, line := range strings.Split(out, "\n") {
		idx := strings.Index(line, "_bucket{")
		if idx < 0 {
			continue
		}
		name := line[:idx]
		rest := line[idx+len("_bucket{"):]
		end := strings.Index(rest, "} ")
		if end < 0 {
			t.Fatalf("malformed bucket line: %q", line)
		}
		labels, valStr := rest[:end], rest[end+2:]
		v, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			t.Fatalf("bucket value %q: %v", valStr, err)
		}
		// Strip the le label so buckets of one series share a key.
		var kept []string
		for _, l := range strings.Split(labels, ",") {
			if !strings.HasPrefix(l, "le=") {
				kept = append(kept, l)
			}
		}
		key := name + "{" + strings.Join(kept, ",") + "}"
		if v < last[key] {
			t.Fatalf("histogram %s not monotone: %d after %d (line %q)", key, v, last[key], line)
		}
		last[key] = v
	}
	if len(last) == 0 {
		t.Fatal("no bucket lines found")
	}
}

// TestMetricsPromEndpoint drives a real server and checks the
// ?format=prom form: content type, counters reflecting traffic, stage
// histograms present once the pipeline ran, and a parseable exposition.
func TestMetricsPromEndpoint(t *testing.T) {
	_, ts := newTestServerCfg(t, Config{Workers: 0, TraceRing: 32})
	ds := createDataset(t, ts, 300, 1)
	code, _ := post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":3,"l":3}`, ds))
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics?format=prom: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("content type = %q, want %q", ct, promContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE repro_requests counter",
		"repro_requests_total ",
		"repro_pipeline_runs_total 1",
		`repro_stage_duration_seconds_bucket{stage="mondrian"`,
		"repro_process_goroutines ",
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	assertHistogramsMonotone(t, out)
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
	}

	// The JSON form is unaffected by the prom view existing.
	codeJSON, body := get(t, ts, "/metrics")
	if codeJSON != http.StatusOK {
		t.Fatalf("metrics: status %d", codeJSON)
	}
	snap := mustJSON[Snapshot](t, body)
	if snap.PipelineRuns != 1 {
		t.Fatalf("JSON snapshot pipeline_runs = %d, want 1", snap.PipelineRuns)
	}
	if _, ok := snap.CostModel["mondrian"]; !ok {
		t.Fatalf("JSON snapshot cost_model lacks mondrian: %v", snap.CostModel)
	}
}
