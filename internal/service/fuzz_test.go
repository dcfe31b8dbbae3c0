package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzFixture is the server the request-decoder fuzz targets share: one
// n=200 synthetic dataset and one release on it.
type fuzzFixture struct {
	s       *Server
	ds, rel string
}

// newFuzzFixture boots the fixture server and drains its job workers
// when the fuzz run ends.
func newFuzzFixture(f *testing.F) *fuzzFixture {
	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			f.Errorf("draining job workers: %v", err)
		}
	})
	fx := &fuzzFixture{s: s}
	id := func(path, body string) string {
		rec := fx.post(path, body)
		var v struct {
			ID      string `json:"id"`
			Release string `json:"release"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
			f.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		return v.ID + v.Release
	}
	fx.ds = id("/v1/datasets", `{"n":200,"seed":7}`)
	fx.rel = id("/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":3,"l":3}`, fx.ds))
	return fx
}

func (fx *fuzzFixture) post(path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	fx.s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// get serves path with rawQuery set verbatim, so arbitrary fuzz bytes
// reach the handler's query parsing instead of failing URL parsing in
// the test harness.
func (fx *fuzzFixture) get(path, rawQuery string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.URL.RawQuery = rawQuery
	rec := httptest.NewRecorder()
	fx.s.ServeHTTP(rec, req)
	return rec
}

// fill substitutes the fixture's id into a seed that names one.
func fill(seed, id string) string {
	if strings.Contains(seed, "%q") {
		return fmt.Sprintf(seed, id)
	}
	return seed
}

// FuzzAttackRequest sends arbitrary bodies to POST /v1/attack and
// /v1/risk on a server holding one small release. Hostile input must
// degrade to a 4xx: the invariant is no panic and no 5xx.
func FuzzAttackRequest(f *testing.F) {
	fx := newFuzzFixture(f)
	if rec := fx.post("/v1/attack", fmt.Sprintf(`{"release":%q}`, fx.rel)); rec.Code != http.StatusOK {
		f.Fatalf("attack on the fixture release: %d %s", rec.Code, rec.Body)
	}

	for _, seed := range []string{
		`{"release":%q}`,
		`{"release":%q,"bprime":0.3}`,
		`{"release":%q,"bprimes":[0.2,0.3,0.3,0.5]}`,
		`{"release":%q,"bprime":0.4,"inference":"exact"}`,
		`{"release":%q,"bprimes":[0.1,1],"inference":"adaptive","max_states":1}`,
		`{"release":%q,"bprime":0.3,"inference":"omega","max_states":7,"explain":true}`,
		`{"release":%q,"bprime":0.3,"inference":"adaptive","max_states":-1}`,
		`{"release":%q,"bprime":0.3,"inference":"bogus"}`,
		`{"release":%q,"bprime":0}`,
		`{"release":%q,"bprime":-0.5}`,
		`{"release":%q,"bprime":1.0000001}`,
		`{"release":%q,"bprime":1e308}`,
		`{"release":%q,"bprimes":[]}`,
		`{"release":%q,"bprimes":[0.5,2]}`,
		`{"release":%q,"bprime":0.3,"bprimes":[0.3]}`,
		`{"release":"rel_missing","bprime":0.3}`,
		`{"release":%q,"bprime":"0.3"}`,
		`{"release":%q,"extra":1}`,
	} {
		body := fill(seed, fx.rel)
		f.Add(body, false)
		f.Add(body, true)
	}
	f.Add(`{`, false)
	f.Add(`null`, true)

	f.Fuzz(func(t *testing.T, body string, risk bool) {
		path := "/v1/attack"
		if risk {
			path = "/v1/risk"
		}
		if rec := fx.post(path, body); rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}

// FuzzAnonymizeRequest sends arbitrary bodies to POST /v1/anonymize,
// sync and async ("async": true), on a server holding one small
// dataset. The invariant is no panic and no 5xx — for the submission
// and for the job it queues. Each accepted job is awaited before the
// next input, so the run never fills the bounded job queue.
func FuzzAnonymizeRequest(f *testing.F) {
	fx := newFuzzFixture(f)
	for _, seed := range []string{
		`{"dataset":%q}`,
		`{"dataset":%q,"model":"bt","k":4,"t":0.2,"b":0.35}`,
		`{"dataset":%q,"model":"skyline","k":3}`,
		`{"dataset":%q,"algo":"anatomy","model":"distinct","l":2}`,
		`{"dataset":%q,"algo":"incognito","model":"tclose","t":0.3}`,
		`{"dataset":%q,"model":"prob","inference":"adaptive","max_states":16}`,
		`{"dataset":%q,"model":"distinct","k":3,"l":3,"explain":true}`,
		`{"dataset":%q,"model":"bt","b":0.25,"async":true}`,
		`{"dataset":%q,"model":"distinct","k":5,"async":true}`,
		`{"dataset":%q,"k":1000000000}`,
		`{"dataset":%q,"k":1000000000,"async":true}`,
		`{"dataset":%q,"k":0}`,
		`{"dataset":%q,"l":-3}`,
		`{"dataset":%q,"t":0}`,
		`{"dataset":%q,"t":1.5}`,
		`{"dataset":%q,"b":-1}`,
		`{"dataset":%q,"b":1e308}`,
		`{"dataset":%q,"inference":"exact"}`,
		`{"dataset":%q,"inference":"adaptive","max_states":-1}`,
		`{"dataset":%q,"algo":"magic"}`,
		`{"dataset":%q,"model":"melt"}`,
		`{"dataset":%q,"k":"3"}`,
		`{"dataset":%q,"extra":1}`,
		`{"dataset":"ds_missing"}`,
		`{"dataset":"ds_missing","async":true}`,
		`{`,
		`null`,
	} {
		f.Add(fill(seed, fx.ds))
	}

	f.Fuzz(func(t *testing.T, body string) {
		rec := fx.post("/v1/anonymize", body)
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/anonymize %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var j JobResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
			t.Fatalf("202 body %q: %v", rec.Body, err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for j.State == string(jobQueued) || j.State == string(jobRunning) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s for %q still %s after 30s", j.Job, body, j.State)
			}
			time.Sleep(time.Millisecond)
			poll := fx.get("/v1/jobs/"+j.Job, "")
			if poll.Code != http.StatusOK {
				t.Fatalf("GET /v1/jobs/%s: status %d: %s", j.Job, poll.Code, poll.Body)
			}
			j = JobResponse{}
			if err := json.Unmarshal(poll.Body.Bytes(), &j); err != nil {
				t.Fatalf("job body %q: %v", poll.Body, err)
			}
		}
	})
}

// FuzzEstimateQuery sends arbitrary query strings to GET /v1/estimate
// on a server holding one small dataset and release. The invariant is
// no panic and no 5xx.
func FuzzEstimateQuery(f *testing.F) {
	fx := newFuzzFixture(f)
	for _, seed := range []string{
		"op=anonymize&dataset=" + fx.ds,
		"op=anonymize&dataset=" + fx.ds + "&algo=incognito",
		"op=anonymize&dataset=" + fx.ds + "&algo=magic",
		"op=anonymize&dataset=ds_missing",
		"op=anonymize&dataset=" + fx.ds + "&model=distinct",
		"op=anonymize&dataset=" + fx.ds + "&model=prob",
		"op=anonymize&dataset=" + fx.ds + "&model=tclose",
		"op=anonymize&dataset=" + fx.ds + "&model=bt",
		"op=anonymize&dataset=" + fx.ds + "&model=skyline&b=0.2",
		"op=anonymize&dataset=" + fx.ds + "&model=melt",
		"op=anonymize&dataset=" + fx.ds + "&k=0",
		"op=anonymize&dataset=" + fx.ds + "&l=-1",
		"op=anonymize&dataset=" + fx.ds + "&t=NaN",
		"op=anonymize&dataset=" + fx.ds + "&b=2",
		"op=anonymize&dataset=" + fx.ds + "&inference=adaptive&max_states=-1",
		"op=anonymize&dataset=" + fx.ds + "&max_states=-1",
		"op=attack&release=" + fx.rel,
		"op=risk&release=" + fx.rel + "&bprimes=0.1,0.3&inference=adaptive",
		"op=attack&release=" + fx.rel + "&bprimes=0.3,0.3,0.3",
		"op=attack&release=" + fx.rel + "&bprimes=NaN",
		"op=attack&release=" + fx.rel + "&bprimes=-1,0",
		"op=attack&release=" + fx.rel + "&bprimes=5",
		"op=attack&release=" + fx.rel + "&bprimes=1e308,Inf",
		"op=attack&release=" + fx.rel + "&bprimes=0.1,,0.2",
		"op=attack&release=" + fx.rel + "&bprimes=" + strings.Repeat("0.5,", 100) + "0.5",
		"op=attack&release=" + fx.rel + "&inference=exact",
		"op=attack&release=" + fx.rel + "&inference=bogus",
		"op=attack&release=rel_missing",
		"op=attack&release=" + fx.rel + "&bprime=0",
		"op=attack&release=" + fx.rel + "&bprime=0.1",
		"op=attack&release=" + fx.rel + "&bprime=0.1&bprimes=0.1,0.3",
		"op=risk&release=" + fx.rel + "&inference=adaptive&max_states=-1",
		"op=attack&release=" + fx.rel + "&max_states=-1",
		"op=attack",
		"op=melt",
		"op=%zz&release=%",
		"",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, query string) {
		if rec := fx.get("/v1/estimate", query); rec.Code >= 500 {
			t.Fatalf("GET /v1/estimate?%s: status %d: %s", query, rec.Code, rec.Body)
		}
	})
}
