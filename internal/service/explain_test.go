package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestExplainOptIn checks the explain discipline: bodies carry no
// explain block unless asked, asking never pollutes the cached value,
// and both opt-in spellings (?explain=1 and "explain":true) work.
func TestExplainOptIn(t *testing.T) {
	_, ts := newTestServerCfg(t, Config{Workers: 0, TraceRing: 32})
	ds := createDataset(t, ts, 300, 1)
	anonBody := fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":3,"l":3}`, ds)

	code, cold := post(t, ts, "/v1/anonymize", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, cold)
	}
	if bytes.Contains(cold, []byte(`"explain"`)) {
		t.Fatalf("default anonymize body carries explain: %s", cold)
	}
	// Second plain call is the cached baseline ("cached" flips true on
	// it, so the cold body can't serve as the comparison point).
	code, plain := post(t, ts, "/v1/anonymize", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize (warm): status %d", code)
	}

	code, explained := post(t, ts, "/v1/anonymize?explain=1", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize?explain=1: status %d: %s", code, explained)
	}
	resp := mustJSON[AnonymizeResponse](t, explained)
	if resp.Explain == nil {
		t.Fatalf("explain=1 anonymize lacks explain block: %s", explained)
	}
	if resp.Explain.ActualUS < 0 {
		t.Fatalf("explain actual_us negative: %+v", resp.Explain)
	}
	// The pipeline ran once (cold) before the explain request, so the
	// mondrian stage has a calibration sample: the prediction side must
	// price it rather than list it uncalibrated.
	var pricedMondrian bool
	for _, p := range resp.Explain.Predicted {
		if p.Stage == "mondrian" {
			pricedMondrian = true
			if p.PredictedUS <= 0 {
				t.Fatalf("mondrian predicted_us = %v, want > 0", p.PredictedUS)
			}
			if p.Shape.Rows != 300 {
				t.Fatalf("mondrian shape rows = %d, want 300", p.Shape.Rows)
			}
		}
	}
	if !pricedMondrian {
		t.Fatalf("explain priced no mondrian stage: %+v", resp.Explain)
	}

	// Asking for explain must not have mutated the cached release:
	// a subsequent plain request returns the original bytes.
	code, again := post(t, ts, "/v1/anonymize", anonBody)
	if code != http.StatusOK {
		t.Fatalf("anonymize (cached): status %d", code)
	}
	if !bytes.Equal(plain, again) {
		t.Fatalf("cached body changed after an explain request:\n was %s\n now %s", plain, again)
	}

	// Attack: body-field opt-in on a shared cached response.
	rel := resp.Release
	attackBody := fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel)
	code, atkPlain := post(t, ts, "/v1/attack", attackBody)
	if code != http.StatusOK {
		t.Fatalf("attack: status %d: %s", code, atkPlain)
	}
	if bytes.Contains(atkPlain, []byte(`"explain"`)) {
		t.Fatalf("default attack body carries explain: %s", atkPlain)
	}
	code, atkExplained := post(t, ts, "/v1/attack",
		fmt.Sprintf(`{"release":%q,"bprime":0.4,"explain":true}`, rel))
	if code != http.StatusOK {
		t.Fatalf("attack explain: status %d: %s", code, atkExplained)
	}
	if mustJSON[AttackResponse](t, atkExplained).Explain == nil {
		t.Fatalf("attack with explain:true lacks block: %s", atkExplained)
	}
	code, atkAgain := post(t, ts, "/v1/attack", attackBody)
	if code != http.StatusOK {
		t.Fatalf("attack (cached): status %d", code)
	}
	if !bytes.Equal(atkPlain, atkAgain) {
		t.Fatalf("cached attack body changed after an explain request:\n was %s\n now %s", atkPlain, atkAgain)
	}

	// Risk honors the query form too.
	code, riskExplained := post(t, ts, "/v1/risk?explain=1", attackBody)
	if code != http.StatusOK {
		t.Fatalf("risk explain: status %d: %s", code, riskExplained)
	}
	if mustJSON[RiskResponse](t, riskExplained).Explain == nil {
		t.Fatalf("risk?explain=1 lacks block: %s", riskExplained)
	}
}

// TestEstimateEndpoint prices hypothetical requests against the live
// cost model without running them, and checks the validation surface.
func TestEstimateEndpoint(t *testing.T) {
	_, ts := newTestServerCfg(t, Config{Workers: 0, TraceRing: 32})
	ds := createDataset(t, ts, 300, 2)
	rel := mustReleaseID(t, ts, ds)

	// The anonymize above calibrated mondrian; pricing it must succeed.
	pipelineRuns := func() int64 {
		code, body := get(t, ts, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics: status %d", code)
		}
		return mustJSON[Snapshot](t, body).PipelineRuns
	}
	runsBefore := pipelineRuns()
	code, body := get(t, ts, "/v1/estimate?op=anonymize&dataset="+ds)
	if code != http.StatusOK {
		t.Fatalf("estimate anonymize: status %d: %s", code, body)
	}
	est := mustJSON[EstimateResponse](t, body)
	if est.Op != "anonymize" {
		t.Fatalf("op = %q, want anonymize", est.Op)
	}
	if est.PredictedUS <= 0 {
		t.Fatalf("calibrated anonymize estimate predicted_us = %v, want > 0: %s", est.PredictedUS, body)
	}
	if runsBefore != pipelineRuns() {
		t.Fatal("estimate ran a pipeline")
	}

	// Attack estimate: the release exists, so shapes resolve; stages
	// the attack path hasn't run yet land in uncalibrated rather than
	// pricing at zero silently.
	code, body = get(t, ts, "/v1/estimate?op=attack&release="+rel+"&bprimes=0.1,0.3")
	if code != http.StatusOK {
		t.Fatalf("estimate attack: status %d: %s", code, body)
	}
	est = mustJSON[EstimateResponse](t, body)
	if got := len(est.Stages) + len(est.Uncalibrated); got == 0 {
		t.Fatalf("attack estimate names no stages at all: %s", body)
	}

	// After a real attack the kernel stages are calibrated.
	code, _ = post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel))
	if code != http.StatusOK {
		t.Fatalf("attack: status %d", code)
	}
	code, body = get(t, ts, "/v1/estimate?op=attack&release="+rel)
	if code != http.StatusOK {
		t.Fatalf("estimate attack: status %d: %s", code, body)
	}
	est = mustJSON[EstimateResponse](t, body)
	if est.PredictedUS <= 0 {
		t.Fatalf("post-attack attack estimate predicted_us = %v, want > 0: %s", est.PredictedUS, body)
	}
	for _, st := range est.Uncalibrated {
		if st == "inference" || st == "priors" {
			t.Fatalf("%s still uncalibrated after an attack ran: %s", st, body)
		}
	}

	// op=risk is priced as the risk pass it runs, under its own stage:
	// an attack does not calibrate it, a risk request does.
	riskStages := func() (priced, uncalibrated bool) {
		t.Helper()
		code, body := get(t, ts, "/v1/estimate?op=risk&release="+rel)
		if code != http.StatusOK {
			t.Fatalf("estimate risk: status %d: %s", code, body)
		}
		est := mustJSON[EstimateResponse](t, body)
		for _, sp := range est.Stages {
			priced = priced || sp.Stage == "risk"
			if sp.Stage == "inference" {
				t.Fatalf("risk estimate prices the attack's inference stage: %s", body)
			}
		}
		for _, st := range est.Uncalibrated {
			uncalibrated = uncalibrated || st == "risk"
		}
		return priced, uncalibrated
	}
	if priced, uncal := riskStages(); priced || !uncal {
		t.Fatalf("risk stage priced=%v uncalibrated=%v before any risk request ran", priced, uncal)
	}
	code, _ = post(t, ts, "/v1/risk", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel))
	if code != http.StatusOK {
		t.Fatalf("risk: status %d", code)
	}
	if priced, uncal := riskStages(); !priced || uncal {
		t.Fatalf("risk stage priced=%v uncalibrated=%v after a risk request ran", priced, uncal)
	}

	for _, tc := range []struct {
		q    string
		code int
	}{
		{"", http.StatusBadRequest},
		{"?op=melt", http.StatusBadRequest},
		{"?op=anonymize", http.StatusBadRequest}, // missing dataset
		{"?op=anonymize&dataset=" + ds + "&algo=magic", http.StatusBadRequest},
		{"?op=anonymize&dataset=ds_nope", http.StatusNotFound},
		{"?op=attack", http.StatusBadRequest}, // missing release
		{"?op=attack&release=rel_nope", http.StatusNotFound},
		{"?op=attack&release=" + rel + "&bprimes=0.1,zap", http.StatusBadRequest},
	} {
		code, body := get(t, ts, "/v1/estimate"+tc.q)
		if code != tc.code {
			t.Errorf("estimate%s: status %d, want %d (%s)", tc.q, code, tc.code, body)
		}
	}
}

// TestAnonymizePricingIncludesPriorPass: a cold (B,t) release derives
// its requirement's priors before it partitions, so the priced cold
// path names every stage the request ran, and the estimate of the
// default request (bt) prices the same path. Skyline prices one prior
// pass per distinct ladder bandwidth; t-closeness runs none.
func TestAnonymizePricingIncludesPriorPass(t *testing.T) {
	_, ts := newTestServerCfg(t, Config{Workers: 0, TraceRing: 32})
	ds := createDataset(t, ts, 300, 3)
	counts := func(preds []StagePrediction, uncal []string) map[string]int64 {
		c := map[string]int64{}
		for _, p := range preds {
			c[p.Stage]++
		}
		for _, st := range uncal {
			c[st]++
		}
		return c
	}

	code, body := post(t, ts, "/v1/anonymize?explain=1", fmt.Sprintf(`{"dataset":%q,"model":"bt"}`, ds))
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, body)
	}
	ex := mustJSON[AnonymizeResponse](t, body).Explain
	priced := counts(ex.Predicted, ex.Uncalibrated)
	for _, st := range ex.Actual {
		if priced[st.Stage] != st.Count {
			t.Errorf("stage %s ran %d times, priced %d: %s", st.Stage, st.Count, priced[st.Stage], body)
		}
	}
	if priced["kernel_table"] != 1 || priced["priors"] != 1 {
		t.Errorf("cold bt anonymize priced %v, want one kernel_table and one priors", priced)
	}

	code, body = get(t, ts, "/v1/estimate?op=anonymize&dataset="+ds)
	if code != http.StatusOK {
		t.Fatalf("estimate anonymize: status %d: %s", code, body)
	}
	est := mustJSON[EstimateResponse](t, body)
	if c := counts(est.Stages, est.Uncalibrated); c["kernel_table"] != 1 || c["priors"] != 1 || c["mondrian"] != 1 {
		t.Errorf("default anonymize estimate priced %v, want kernel_table, priors and mondrian once each", c)
	}

	for _, tc := range []struct {
		body   string
		priors int64
	}{
		{`"model":"skyline","b":0.3`, 3}, // ladder 0.2, 0.3, 0.5
		{`"model":"skyline","b":0.2`, 2}, // ladder 0.2, 0.2, 0.5
		{`"model":"tclose"`, 0},
	} {
		code, body := post(t, ts, "/v1/anonymize?explain=1", fmt.Sprintf(`{"dataset":%q,%s}`, ds, tc.body))
		if code != http.StatusOK {
			t.Fatalf("anonymize %s: status %d: %s", tc.body, code, body)
		}
		ex := mustJSON[AnonymizeResponse](t, body).Explain
		if got := counts(ex.Predicted, ex.Uncalibrated); got["priors"] != tc.priors || got["kernel_table"] != tc.priors {
			t.Errorf("anonymize %s priced %v, want %d prior passes", tc.body, got, tc.priors)
		}
	}
}

// TestEstimateGridMatchesAttack checks that the attack estimate accepts
// exactly the grids POST /v1/attack accepts, and prices the sweep the
// attack would run: one lane per distinct bandwidth.
func TestEstimateGridMatchesAttack(t *testing.T) {
	_, ts := newTestServerCfg(t, Config{Workers: -1, TraceRing: 32})
	ds := createDataset(t, ts, 200, 6)
	rel := mustReleaseID(t, ts, ds)
	// Calibrate the attack stages so the estimate prices them.
	if code, body := post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel)); code != http.StatusOK {
		t.Fatalf("attack: status %d: %s", code, body)
	}
	estimate := func(bprimes string) (int, EstimateResponse, []byte) {
		t.Helper()
		code, body := get(t, ts, "/v1/estimate?op=attack&release="+rel+"&bprimes="+bprimes)
		if code != http.StatusOK {
			return code, EstimateResponse{}, body
		}
		return code, mustJSON[EstimateResponse](t, body), body
	}

	for _, bad := range []string{"5", "NaN", "-1,0", "0", "0.3,1.5", "Inf"} {
		if code, _, body := estimate(bad); code != http.StatusBadRequest {
			t.Errorf("bprimes=%s: status %d, want 400 (%s)", bad, code, body)
		}
	}

	stages := func(e EstimateResponse) int { return len(e.Stages) + len(e.Uncalibrated) }
	code, one, body := estimate("0.3")
	if code != http.StatusOK {
		t.Fatalf("bprimes=0.3: status %d: %s", code, body)
	}
	code, dup, body := estimate("0.3,0.3,0.3")
	if code != http.StatusOK {
		t.Fatalf("bprimes=0.3,0.3,0.3: status %d: %s", code, body)
	}
	// One lane: a kernel table and a prior pass, then inference.
	if stages(dup) != 3 || stages(one) != 3 || dup.PredictedUS != one.PredictedUS {
		t.Fatalf("duplicated grid priced as %d stages / %v µs, want the single point's %d / %v",
			stages(dup), dup.PredictedUS, stages(one), one.PredictedUS)
	}
	if _, two, _ := estimate("0.3,0.2,0.3"); stages(two) != 5 {
		t.Fatalf("two distinct bandwidths priced as %d stages, want 5", stages(two))
	}
}

// TestEstimatePricesTheRequestedModel: GET /v1/estimate?op=anonymize
// fills the anonymize request from the query and prices it through the
// handler's own path, so for every model the estimate lists the stages
// the explain block of the same anonymize request predicts.
// Distinct runs no prior pass; skyline runs one kernel_table/priors
// pair per distinct core.SkylineLadder bandwidth.
func TestEstimatePricesTheRequestedModel(t *testing.T) {
	_, ts := newTestServerCfg(t, Config{Workers: 0, TraceRing: 32})
	ds := createDataset(t, ts, 300, 4)
	const k, tt, b = 4, 0.3, 0.35
	stages := func(preds []StagePrediction) []string {
		out := make([]string, len(preds))
		for i, p := range preds {
			out[i] = fmt.Sprintf("%s%+v", p.Stage, p.Shape)
		}
		return out
	}
	count := func(list []string, stage string) int {
		n := 0
		for _, s := range list {
			if strings.HasPrefix(s, stage+"{") || s == stage {
				n++
			}
		}
		return n
	}
	ladder := map[float64]bool{}
	for _, p := range core.SkylineLadder(core.Params{B: b, T: tt}) {
		ladder[p.B] = true
	}

	for _, model := range []string{"distinct", "prob", "tclose", "bt", "skyline"} {
		body := fmt.Sprintf(`{"dataset":%q,"algo":"mondrian","model":%q,"k":%d,"t":%g,"b":%g}`, ds, model, k, tt, b)
		// The cold run calibrates every stage the request runs; the
		// explained rerun prices the same cold path.
		if code, resp := post(t, ts, "/v1/anonymize", body); code != http.StatusOK {
			t.Fatalf("anonymize %s: status %d: %s", body, code, resp)
		}
		code, resp := post(t, ts, "/v1/anonymize?explain=1", body)
		if code != http.StatusOK {
			t.Fatalf("anonymize?explain=1 %s: status %d: %s", body, code, resp)
		}
		ex := mustJSON[AnonymizeResponse](t, resp).Explain
		q := url.Values{"op": {"anonymize"}, "dataset": {ds}, "algo": {"mondrian"}, "model": {model},
			"k": {fmt.Sprint(k)}, "t": {fmt.Sprint(tt)}, "b": {fmt.Sprint(b)}}
		code, resp = get(t, ts, "/v1/estimate?"+q.Encode())
		if code != http.StatusOK {
			t.Fatalf("estimate %s: status %d: %s", q.Encode(), code, resp)
		}
		est := mustJSON[EstimateResponse](t, resp)
		got, want := stages(est.Stages), stages(ex.Predicted)
		if strings.Join(got, " ") != strings.Join(want, " ") ||
			strings.Join(est.Uncalibrated, " ") != strings.Join(ex.Uncalibrated, " ") {
			t.Errorf("%s: estimate lists %v (uncalibrated %v), explain predicted %v (uncalibrated %v)",
				model, got, est.Uncalibrated, want, ex.Uncalibrated)
		}
		all := append(got, est.Uncalibrated...)
		wantPairs := 0
		switch model {
		case "bt":
			wantPairs = 1
		case "skyline":
			wantPairs = len(ladder)
		}
		if count(all, "kernel_table") != wantPairs || count(all, "priors") != wantPairs {
			t.Errorf("%s: estimate lists %v, want %d kernel_table/priors pairs", model, all, wantPairs)
		}
	}
}

// TestEstimateAttackQueryMatchesBody: the attack estimate fills the
// attack request from the query and validates it on the attack
// handler's own path, so every query answers with the status and error
// body of the equivalent POST /v1/attack, and a single bprime prices
// one lane.
func TestEstimateAttackQueryMatchesBody(t *testing.T) {
	_, ts := newTestServerCfg(t, Config{Workers: -1, TraceRing: 32})
	ds := createDataset(t, ts, 200, 6)
	rel := mustReleaseID(t, ts, ds)
	for _, tc := range []struct{ query, body string }{
		{"bprime=0.4", `"bprime":0.4`},
		{"bprime=0", `"bprime":0`},
		{"bprime=-0.5", `"bprime":-0.5`},
		{"bprime=0.1&bprimes=0.1", `"bprime":0.1,"bprimes":[0.1]`},
		{"bprimes=0.5,2", `"bprimes":[0.5,2]`},
		{"inference=adaptive&max_states=-1", `"inference":"adaptive","max_states":-1`},
		{"inference=bogus", `"inference":"bogus"`},
		{"inference=adaptive&max_states=64&bprime=0.2", `"inference":"adaptive","max_states":64,"bprime":0.2`},
	} {
		postCode, postBody := post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,%s}`, rel, tc.body))
		code, body := get(t, ts, "/v1/estimate?op=attack&release="+rel+"&"+tc.query)
		if code != postCode {
			t.Errorf("estimate %s: status %d, POST /v1/attack {%s}: %d (%s)", tc.query, code, tc.body, postCode, body)
			continue
		}
		if code != http.StatusOK {
			if !bytes.Equal(body, postBody) {
				t.Errorf("estimate %s: error body %s, POST /v1/attack: %s", tc.query, body, postBody)
			}
			continue
		}
		if est := mustJSON[EstimateResponse](t, body); len(est.Stages)+len(est.Uncalibrated) != 3 {
			t.Errorf("estimate %s priced %d stages, want one lane (3): %s", tc.query, len(est.Stages)+len(est.Uncalibrated), body)
		}
	}
}

// TestDebugTraceLookupAndFilter exercises the by-id and by-endpoint
// forms of the trace surface.
func TestDebugTraceLookupAndFilter(t *testing.T) {
	s, ts := newTestServerCfg(t, Config{Workers: 0, TraceRing: 32})
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	ds := createDataset(t, ts, 300, 3)
	resp, err := http.Post(ts.URL+"/v1/anonymize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":3,"l":3}`, ds)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("traced anonymize missing X-Request-Id")
	}

	// By id: found regardless of speed, 404 for unknown or empty ids.
	dget := func(path string) (int, []byte) {
		t.Helper()
		r, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, buf.Bytes()
	}
	code, body := dget("/debug/traces/" + reqID)
	if code != http.StatusOK {
		t.Fatalf("trace by id: status %d: %s", code, body)
	}
	if !bytes.Contains(body, []byte(fmt.Sprintf(`"id":%q`, reqID))) {
		t.Fatalf("trace body does not carry id %s: %s", reqID, body)
	}
	if code, _ = dget("/debug/traces/req_nope"); code != http.StatusNotFound {
		t.Fatalf("unknown trace id: status %d, want 404", code)
	}
	if code, _ = dget("/debug/traces/a/b"); code != http.StatusNotFound {
		t.Fatalf("nested trace path: status %d, want 404", code)
	}

	// By endpoint: only matching ops, exact-match filter.
	q := url.Values{"endpoint": {"POST /v1/anonymize"}, "min_ms": {"0"}}
	code, body = dget("/debug/traces?" + q.Encode())
	if code != http.StatusOK {
		t.Fatalf("trace filter: status %d: %s", code, body)
	}
	tr := mustJSON[TracesResponse](t, body)
	if len(tr.Traces) == 0 {
		t.Fatal("endpoint filter returned no traces for POST /v1/anonymize")
	}
	for _, v := range tr.Traces {
		if v.Op != "POST /v1/anonymize" {
			t.Fatalf("filtered list carries op %q", v.Op)
		}
	}
	q.Set("endpoint", "POST /v1/never")
	code, body = dget("/debug/traces?" + q.Encode())
	if code != http.StatusOK {
		t.Fatalf("empty filter: status %d", code)
	}
	if tr := mustJSON[TracesResponse](t, body); len(tr.Traces) != 0 {
		t.Fatalf("filter for unseen op returned %d traces", len(tr.Traces))
	}
}
