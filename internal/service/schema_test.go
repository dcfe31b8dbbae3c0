package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/schema"
)

// hospitalJSON is a §I-style disease scenario: three attributes, a
// sensitive hierarchy, an age→cancer dependency, and both hard
// negative-association constraints.
const hospitalJSON = `{
  "name": "hospital",
  "doc": "small disease scenario mirroring the paper's first example",
  "attributes": [
    {"name": "Age", "kind": "numeric", "range": {"min": 20, "max": 79}},
    {"name": "Sex", "kind": "categorical", "values": ["Female", "Male"]},
    {"name": "Disease", "kind": "categorical", "sensitive": true, "hierarchy": {
      "label": "*", "children": [
        {"label": "Cancer", "children": [
          {"label": "Ovarian-cancer"}, {"label": "Prostate-cancer"}, {"label": "Lung-cancer"}]},
        {"label": "Infection", "children": [
          {"label": "Flu"}, {"label": "Pneumonia"}]}]}}
  ],
  "synthesis": {
    "weights": {"Disease": {"Flu": 4, "Pneumonia": 2, "Lung-cancer": 1.5}},
    "dependencies": [
      {"when": {"attr": "Age", "min": 60},
       "scale": {"Lung-cancer": 3, "Pneumonia": 2, "Flu": 0.5}}
    ],
    "constraints": [
      {"attr": "Sex", "value": "Male", "sensitive": "Ovarian-cancer"},
      {"attr": "Sex", "value": "Female", "sensitive": "Prostate-cancer"}
    ]
  }
}`

func registerSchema(t *testing.T, ts *httptest.Server, doc string) SchemaRegisterResponse {
	t.Helper()
	code, body := post(t, ts, "/v1/schemas", doc)
	if code != http.StatusOK {
		t.Fatalf("register schema: status %d: %s", code, body)
	}
	return mustJSON[SchemaRegisterResponse](t, body)
}

func TestSchemaEndpoints(t *testing.T) {
	_, ts := newTestServer(t, -1)

	// The built-in adult spec is pre-registered.
	code, body := get(t, ts, "/v1/schemas")
	if code != http.StatusOK {
		t.Fatalf("list: status %d: %s", code, body)
	}
	list := mustJSON[SchemaListResponse](t, body)
	if len(list.Schemas) != 1 || list.Schemas[0].Name != "adult" {
		t.Fatalf("boot listing = %+v, want the adult built-in", list)
	}
	if list.Schemas[0].Sensitive != "Occupation" || len(list.Schemas[0].QI) != 6 {
		t.Fatalf("adult row = %+v", list.Schemas[0])
	}

	reg := registerSchema(t, ts, hospitalJSON)
	if reg.Existed || reg.Name != "hospital" || !strings.HasPrefix(reg.ID, "sch_") {
		t.Fatalf("first registration: %+v", reg)
	}
	again := registerSchema(t, ts, hospitalJSON)
	if !again.Existed || again.ID != reg.ID {
		t.Fatalf("re-registration: %+v (want existed, id %s)", again, reg.ID)
	}

	code, body = get(t, ts, "/v1/schemas")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	list = mustJSON[SchemaListResponse](t, body)
	if len(list.Schemas) != 2 || list.Schemas[1].Name != "hospital" {
		t.Fatalf("listing after register = %+v", list)
	}

	// Same name, different content: 409, not silent replacement.
	conflict := strings.Replace(hospitalJSON, `"Flu": 4`, `"Flu": 9`, 1)
	code, body = post(t, ts, "/v1/schemas", conflict)
	if code != http.StatusConflict {
		t.Fatalf("name conflict: status %d: %s", code, body)
	}

	// Registration-time validation: a domain value missing from the
	// hierarchy is rejected with a precise 400 naming the value.
	invalid := strings.Replace(hospitalJSON, `"values": ["Female", "Male"]`,
		`"values": ["Female", "Male"], "hierarchy": {"label": "*", "children": [{"label": "Female"}]}`, 1)
	code, body = post(t, ts, "/v1/schemas", invalid)
	if code != http.StatusBadRequest || !strings.Contains(string(body), `\"Male\" is not a leaf`) {
		t.Fatalf("invalid spec: status %d: %s", code, body)
	}

	// Unknown schema references 404.
	code, body = post(t, ts, "/v1/datasets", `{"n":10,"seed":1,"schema":"nope"}`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown schema on synthesis: status %d: %s", code, body)
	}

	// The JSON synthesis path honors the CSV path's ?schema= spelling
	// instead of silently defaulting to adult...
	code, body = post(t, ts, "/v1/datasets?schema=hospital", `{"n":10,"seed":1}`)
	if code != http.StatusOK {
		t.Fatalf("query-schema synthesis: status %d: %s", code, body)
	}
	if ds := mustJSON[DatasetResponse](t, body); ds.Schema != reg.ID {
		t.Fatalf("query-schema synthesis used schema %q, want %q", ds.Schema, reg.ID)
	}
	// ...and rejects a contradictory body/query pair.
	code, body = post(t, ts, "/v1/datasets?schema=adult", `{"n":10,"seed":1,"schema":"hospital"}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "named twice") {
		t.Fatalf("contradictory schema refs: status %d: %s", code, body)
	}
}

// TestMultiSchemaDatasetKeying checks that equal (n, seed) under
// different schemas produce distinct resident datasets.
func TestMultiSchemaDatasetKeying(t *testing.T) {
	s, ts := newTestServer(t, -1)
	registerSchema(t, ts, hospitalJSON)

	code, body := post(t, ts, "/v1/datasets", `{"n":80,"seed":3}`)
	if code != http.StatusOK {
		t.Fatalf("adult dataset: status %d: %s", code, body)
	}
	adultDS := mustJSON[DatasetResponse](t, body)
	code, body = post(t, ts, "/v1/datasets", `{"n":80,"seed":3,"schema":"hospital"}`)
	if code != http.StatusOK {
		t.Fatalf("hospital dataset: status %d: %s", code, body)
	}
	hospDS := mustJSON[DatasetResponse](t, body)
	if adultDS.ID == hospDS.ID {
		t.Fatalf("same dataset id %q under different schemas", adultDS.ID)
	}
	if adultDS.Schema == hospDS.Schema {
		t.Fatalf("same schema id reported for adult and hospital")
	}
	if hospDS.Cached {
		t.Fatal("first hospital dataset reported cached")
	}
	if s.metrics.DatasetBuilds.Value() != 2 {
		t.Fatalf("dataset builds = %d, want 2", s.metrics.DatasetBuilds.Value())
	}
}

// TestNonAdultSchemaEndToEnd is the acceptance path: register a
// non-Adult schema over HTTP, synthesize and upload data under it,
// run anonymize → attack → risk, and require the response bodies to
// be byte-identical across -workers settings.
func TestNonAdultSchemaEndToEnd(t *testing.T) {
	type run struct{ dsSynth, dsCSV, anon, attack, risk []byte }

	exercise := func(workers int) run {
		_, ts := newTestServer(t, workers)
		registerSchema(t, ts, hospitalJSON)

		code, body := post(t, ts, "/v1/datasets", `{"n":300,"seed":11,"schema":"hospital"}`)
		if code != http.StatusOK {
			t.Fatalf("synthesize: status %d: %s", code, body)
		}
		out := run{dsSynth: body}
		ds := mustJSON[DatasetResponse](t, body)

		// Round-trip the synthesized table through CSV upload under the
		// same schema: a distinct dataset (csv-keyed) that must behave
		// identically downstream.
		spec, err := schema.Parse([]byte(hospitalJSON))
		if err != nil {
			t.Fatal(err)
		}
		tab, err := schema.Synthesize(spec, 300, 11)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, tab); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/datasets?schema=hospital", "text/csv", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		upBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload: status %d: %s", resp.StatusCode, upBody)
		}
		out.dsCSV = upBody
		up := mustJSON[DatasetResponse](t, upBody)
		if up.Records != 300 || up.ID == ds.ID {
			t.Fatalf("upload: %+v (synth id %s)", up, ds.ID)
		}

		code, body = post(t, ts, "/v1/anonymize",
			fmt.Sprintf(`{"dataset":%q,"model":"bt","k":3,"l":3,"t":0.3}`, ds.ID))
		if code != http.StatusOK {
			t.Fatalf("anonymize: status %d: %s", code, body)
		}
		out.anon = body
		rel := mustJSON[AnonymizeResponse](t, body)

		code, body = post(t, ts, "/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel.Release))
		if code != http.StatusOK {
			t.Fatalf("attack: status %d: %s", code, body)
		}
		out.attack = body
		att := mustJSON[AttackResponse](t, body)
		if att.Records != 300 || att.WorstRisk <= 0 {
			t.Fatalf("implausible attack: %+v", att)
		}

		code, body = post(t, ts, "/v1/risk", fmt.Sprintf(`{"release":%q,"bprime":0.4}`, rel.Release))
		if code != http.StatusOK {
			t.Fatalf("risk: status %d: %s", code, body)
		}
		out.risk = body

		// Release metadata names the hospital schema.
		code, body = get(t, ts, "/v1/releases/"+rel.Release)
		if code != http.StatusOK {
			t.Fatalf("release info: status %d: %s", code, body)
		}
		info := mustJSON[ReleaseInfo](t, body)
		if !strings.HasPrefix(info.Schema, "sch_") || info.Schema != ds.Schema {
			t.Fatalf("release schema = %q, dataset schema = %q", info.Schema, ds.Schema)
		}
		return out
	}

	seq := exercise(-1)
	par := exercise(0)
	for name, pair := range map[string][2][]byte{
		"dataset": {seq.dsSynth, par.dsSynth},
		"csv":     {seq.dsCSV, par.dsCSV},
		"attack":  {seq.attack, par.attack},
		"risk":    {seq.risk, par.risk},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("%s bodies differ across workers:\nseq: %s\npar: %s", name, pair[0], pair[1])
		}
	}
	// The anonymize response carries wall-clock seconds; everything
	// else must match exactly.
	seqAnon := mustJSON[AnonymizeResponse](t, seq.anon)
	parAnon := mustJSON[AnonymizeResponse](t, par.anon)
	seqAnon.Seconds, parAnon.Seconds = 0, 0
	if seqAnon != parAnon {
		t.Errorf("anonymize responses differ across workers:\nseq: %+v\npar: %+v", seqAnon, parAnon)
	}
}

// TestCSVUploadSchemaMismatch uploads Adult-shaped CSV under the
// hospital schema and requires a precise 400 from the upload-time
// domain check, not an engine failure.
func TestCSVUploadSchemaMismatch(t *testing.T) {
	_, ts := newTestServer(t, -1)
	registerSchema(t, ts, hospitalJSON)

	// A CSV with the hospital columns but an undeclared disease.
	csv := "Age,Sex,Disease\n44,Male,Scurvy\n"
	resp, err := http.Post(ts.URL+"/v1/datasets?schema=hospital", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `\"Scurvy\"`) {
		t.Fatalf("mismatched upload: status %d: %s", resp.StatusCode, body)
	}

	// A numeric value outside the declared range is also caught.
	csv = "Age,Sex,Disease\n140,Male,Flu\n"
	resp, err = http.Post(ts.URL+"/v1/datasets?schema=hospital", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "140") {
		t.Fatalf("out-of-range upload: status %d: %s", resp.StatusCode, body)
	}

	// Unknown schema ref on the CSV path 404s before decoding.
	resp, err = http.Post(ts.URL+"/v1/datasets?schema=nope", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown schema on upload: status %d", resp.StatusCode)
	}
}
