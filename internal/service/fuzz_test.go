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

// FuzzAttackRequest sends arbitrary bodies to POST /v1/attack and
// /v1/risk on a server holding one small release. Hostile input must
// degrade to a 4xx: the invariant is no panic and no 5xx.
func FuzzAttackRequest(f *testing.F) {
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
	do := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	id := func(path, body string) string {
		rec := do(path, body)
		var v struct {
			ID      string `json:"id"`
			Release string `json:"release"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
			f.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		return v.ID + v.Release
	}
	ds := id("/v1/datasets", `{"n":200,"seed":7}`)
	rel := id("/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":3,"l":3}`, ds))
	if rec := do("/v1/attack", fmt.Sprintf(`{"release":%q}`, rel)); rec.Code != http.StatusOK {
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
		body := seed
		if strings.Contains(seed, "%q") {
			body = fmt.Sprintf(seed, rel)
		}
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
		if rec := do(path, body); rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
