package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/adult"
	"repro/internal/dataset"
)

// wallClock matches the response fields that carry wall-clock time;
// they are zeroed before a body is hashed.
var wallClock = regexp.MustCompile(`"(seconds|queued_seconds|run_seconds)":[^,}]+`)

// pendingState matches the state of a job that has not finished yet:
// whether a fresh submission's 202 reads queued or running is a race
// with the job workers, so both hash as pending.
var pendingState = regexp.MustCompile(`"state":"(queued|running)"`)

// bodyDigest is one golden line: the request's label, the status, and
// the SHA-256 of the body with its wall-clock fields zeroed.
func bodyDigest(label string, code int, body []byte) string {
	body = wallClock.ReplaceAll(body, []byte(`"$1":0`))
	body = pendingState.ReplaceAll(body, []byte(`"state":"pending"`))
	sum := sha256.Sum256(body)
	return fmt.Sprintf("%s: %d %s", label, code, hex.EncodeToString(sum[:]))
}

// goldenScript drives a fixed request script against a durable server
// and returns one digest line per response: ingest (synthetic and CSV),
// anonymize under every model (sync, async submitted fresh, and
// async born done), attack and risk in the single and sweep forms with
// and without an inference selection, release metadata, job polls, the
// 4xx bodies of malformed requests, and the 400s of the retired
// algorithms.
func goldenScript(t *testing.T) []string {
	_, ts := newTestServerCfg(t, Config{Workers: 0, DataDir: t.TempDir()})
	var lines []string
	record := func(label string, code int, body []byte) {
		lines = append(lines, bodyDigest(label, code, body))
	}
	postCSV := func(query string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/datasets"+query, "text/csv", bytes.NewReader(body))
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

	// Ingest: a synthetic table and a CSV upload, each twice (the
	// second answer is the resident dataset).
	var ds, csvDS string
	for i := 0; i < 2; i++ {
		code, body := post(t, ts, "/v1/datasets", `{"n":300,"seed":11}`)
		record(fmt.Sprintf("datasets synthetic #%d", i), code, body)
		ds = mustJSON[DatasetResponse](t, body).ID
	}
	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, adult.Generate(150, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		code, body := postCSV("", csvBuf.Bytes())
		record(fmt.Sprintf("datasets csv #%d", i), code, body)
		csvDS = mustJSON[DatasetResponse](t, body).ID
	}

	// Anonymize: every model under Mondrian. The sync request computes
	// the release, an async resubmission of it is born done, and an
	// async request for a fresh key (k=4) runs as a queued job.
	releases := map[string]string{}
	for _, model := range []string{"distinct", "prob", "tclose", "bt", "skyline"} {
		label := "anonymize " + model + " mondrian"
		req := fmt.Sprintf(`{"dataset":%q,"algo":"mondrian","model":%q`, ds, model)
		code, body := post(t, ts, "/v1/anonymize", req+`}`)
		record(label+" sync", code, body)
		if code == http.StatusOK {
			rel := mustJSON[AnonymizeResponse](t, body).Release
			releases[model+" mondrian"] = rel
			code, body = get(t, ts, "/v1/releases/"+rel)
			record(label+" release", code, body)
		}
		code, body = post(t, ts, "/v1/anonymize", req+`,"async":true}`)
		record(label+" async resident", code, body)
		code, body = post(t, ts, "/v1/anonymize", req+`,"k":4,"async":true}`)
		record(label+" async fresh", code, body)
		if code != http.StatusAccepted {
			continue
		}
		j := pollJob(t, ts, mustJSON[JobResponse](t, body).Job)
		lines = append(lines, fmt.Sprintf("%s async done: %s %s %s", label, j.State, j.Release, j.Error))
		code, body = get(t, ts, "/v1/jobs/"+j.Job)
		record(label+" job", code, body)
	}
	code, body := post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q}`, csvDS))
	record("anonymize csv default", code, body)
	releases["csv"] = mustJSON[AnonymizeResponse](t, body).Release

	// Attack and risk, single and sweep, under the default method and
	// an explicit adaptive selection.
	for _, key := range []string{"bt mondrian", "skyline mondrian", "csv"} {
		rel, ok := releases[key]
		if !ok {
			t.Fatalf("no release for %s", key)
		}
		for _, path := range []string{"/v1/attack", "/v1/risk"} {
			for _, form := range []string{``, `,"bprime":0.4`, `,"bprimes":[0.5,0.1,0.3,0.1]`} {
				for _, inf := range []string{``, `,"inference":"adaptive","max_states":64`} {
					code, body := post(t, ts, path, fmt.Sprintf(`{"release":%q%s%s}`, rel, form, inf))
					record(fmt.Sprintf("%s %s%s%s", path, key, form, inf), code, body)
				}
			}
		}
	}

	// Malformed requests: each 4xx body is pinned, message included.
	rel := releases["bt mondrian"]
	for _, tc := range []struct{ path, body string }{
		{"/v1/datasets", `{"n":0}`},
		{"/v1/datasets", `{"n":10,"schema":"nope"}`},
		{"/v1/datasets?schema=adult", `{"n":10,"schema":"other"}`},
		{"/v1/datasets", `{"n":10,"bogus":1}`},
		{"/v1/anonymize", `{"dataset":`},
		{"/v1/anonymize", `{"dataset":"ds_nope"}`},
		{"/v1/anonymize", `{"dataset":"ds_nope","algo":"zz"}`},
		{"/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"zz"}`, ds)},
		{"/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"k":-1}`, ds)},
		{"/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"t":7}`, ds)},
		{"/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"inference":"exact"}`, ds)},
		{"/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"inference":"adaptive","max_states":-1}`, ds)},
		{"/v1/attack", `nonsense`},
		{"/v1/attack", `{"release":"rel_nope"}`},
		{"/v1/attack", `{"release":"rel_nope","bprime":0}`},
		{"/v1/attack", `{"release":"rel_nope","inference":"bogus"}`},
		{"/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":0}`, rel)},
		{"/v1/attack", fmt.Sprintf(`{"release":%q,"bprime":0.3,"bprimes":[0.3]}`, rel)},
		{"/v1/attack", fmt.Sprintf(`{"release":%q,"bprimes":[]}`, rel)},
		{"/v1/attack", fmt.Sprintf(`{"release":%q,"bprimes":[0.5,2]}`, rel)},
		{"/v1/attack", fmt.Sprintf(`{"release":%q,"max_states":-1,"inference":"adaptive"}`, rel)},
		{"/v1/attack", fmt.Sprintf(`{"release":%q,"extra":1}`, rel)},
		{"/v1/risk", `{"release":"rel_nope"}`},
		{"/v1/risk", fmt.Sprintf(`{"release":%q,"bprime":-0.5}`, rel)},
		{"/v1/risk", fmt.Sprintf(`{"release":%q,"bprime":0.3,"inference":"bogus"}`, rel)},
	} {
		code, body := post(t, ts, tc.path, tc.body)
		record("POST "+tc.path+" "+tc.body, code, body)
	}
	for _, path := range []string{"/v1/releases/rel_nope", "/v1/releases/", "/v1/releases/a/b", "/v1/jobs/job_nope", "/v1/anonymize"} {
		code, body := get(t, ts, path)
		record("GET "+path, code, body)
	}
	code, body = postCSV("", []byte("Age,Workclass\n"))
	record("datasets csv header only", code, body)
	code, body = postCSV("?schema=nope", csvBuf.Bytes())
	record("datasets csv unknown schema", code, body)
	header, row, _ := strings.Cut(csvBuf.String(), "\n")
	_, row, _ = strings.Cut(row, ",")
	code, body = postCSV("", []byte(header+"\n999,"+row))
	record("datasets csv out-of-range value", code, body)
	// An unsatisfiable requirement: a 422 in the sync form, a failed
	// job in the async form.
	unsat := fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":1000,"l":50`, ds)
	code, body = post(t, ts, "/v1/anonymize", unsat+`}`)
	record("anonymize unsatisfiable sync", code, body)
	code, body = post(t, ts, "/v1/anonymize", unsat+`,"async":true}`)
	record("anonymize unsatisfiable async", code, body)
	j := pollJob(t, ts, mustJSON[JobResponse](t, body).Job)
	lines = append(lines, fmt.Sprintf("anonymize unsatisfiable async done: %s %s %s", j.State, j.Release, j.Error))
	// Retired algorithms: a 400 naming mondrian, sync, async and as an
	// estimate query.
	for _, algo := range []string{"anatomy", "incognito"} {
		req := fmt.Sprintf(`{"dataset":%q,"algo":%q`, ds, algo)
		code, body = post(t, ts, "/v1/anonymize", req+`}`)
		record("anonymize "+algo+" sync", code, body)
		code, body = post(t, ts, "/v1/anonymize", req+`,"async":true}`)
		record("anonymize "+algo+" async", code, body)
		code, body = get(t, ts, "/v1/estimate?op=anonymize&dataset="+ds+"&algo="+algo)
		record("estimate anonymize "+algo, code, body)
	}
	// Release and dataset ids are content addresses, so they are part of
	// what the golden pins; stripping the ids from the labels keeps the
	// file readable.
	for i, l := range lines {
		lines[i] = strings.NewReplacer(ds, "<ds>", csvDS, "<csv>").Replace(l)
		for key, id := range releases {
			lines[i] = strings.ReplaceAll(lines[i], id, "<"+key+">")
		}
	}
	return lines
}

// TestServiceBodiesGolden pins the bytes of every response in a fixed
// request script to digests committed in testdata/http_golden.txt, so
// a change to the service's request paths is compared with earlier
// builds, not only with itself. Wall-clock fields are zeroed before
// hashing; a fresh async submission pins its job's final state and
// release id, not the race between queued and running.
func TestServiceBodiesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "http_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenScript(t)
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d digests, golden has %d; computed:\n%s", len(got), len(wantLines), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("digest differs from golden:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
