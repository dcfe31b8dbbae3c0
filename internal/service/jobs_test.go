package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/privacy"
)

// pollJob polls GET /v1/jobs/{id} until the job reaches a terminal
// state or the deadline passes.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := get(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job poll: status %d: %s", code, body)
		}
		j := mustJSON[JobResponse](t, body)
		if j.State == string(jobDone) || j.State == string(jobFailed) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAsyncAnonymizeLifecycle walks the job API end to end: a 202 with
// the predicted release id, queued→running→done via polling, the
// release resolvable once done, and a subsequent synchronous request
// served from the store (one pipeline run total).
func TestAsyncAnonymizeLifecycle(t *testing.T) {
	s, ts := newTestServer(t, -1)
	ds := createDataset(t, ts, 200, 2)

	body := fmt.Sprintf(`{"dataset":%q,"model":"distinct","async":true}`, ds)
	code, b := post(t, ts, "/v1/anonymize", body)
	if code != http.StatusAccepted {
		t.Fatalf("async anonymize: status %d (want 202): %s", code, b)
	}
	sub := mustJSON[JobResponse](t, b)
	if sub.Job == "" || sub.Release == "" || sub.Dataset != ds {
		t.Fatalf("implausible submission response: %+v", sub)
	}

	done := pollJob(t, ts, sub.Job)
	if done.State != "done" || done.Error != "" {
		t.Fatalf("job did not complete cleanly: %+v", done)
	}
	if done.Release != sub.Release {
		t.Fatalf("release id changed between submit (%s) and done (%s)", sub.Release, done.Release)
	}

	code, b = get(t, ts, "/v1/releases/"+done.Release)
	if code != http.StatusOK {
		t.Fatalf("release after job: status %d: %s", code, b)
	}

	// The synchronous form of the same request shares the artifact.
	sync := fmt.Sprintf(`{"dataset":%q,"model":"distinct"}`, ds)
	code, b = post(t, ts, "/v1/anonymize", sync)
	if code != http.StatusOK {
		t.Fatalf("sync anonymize: status %d: %s", code, b)
	}
	if resp := mustJSON[AnonymizeResponse](t, b); !resp.Cached || resp.Release != done.Release {
		t.Fatalf("sync request did not share the job's release: %+v", resp)
	}
	if got := s.metrics.PipelineRuns.Value(); got != 1 {
		t.Fatalf("pipeline runs = %d, want 1", got)
	}
	if got := s.metrics.JobsDone.Value(); got != 1 {
		t.Fatalf("jobs done = %d, want 1", got)
	}

	// Resubmitting async for a resident release returns a born-done
	// job: no queue slot, no polling needed, still 202 + pollable.
	code, b = post(t, ts, "/v1/anonymize", body)
	if code != http.StatusAccepted {
		t.Fatalf("resident async resubmit: status %d: %s", code, b)
	}
	resub := mustJSON[JobResponse](t, b)
	if resub.State != "done" || resub.Release != done.Release || resub.Job == sub.Job {
		t.Fatalf("expected a fresh born-done job for a resident release: %+v", resub)
	}
	if code, b := get(t, ts, "/v1/jobs/"+resub.Job); code != http.StatusOK {
		t.Fatalf("born-done job not pollable: status %d: %s", code, b)
	}
	if got := s.metrics.PipelineRuns.Value(); got != 1 {
		t.Fatalf("pipeline runs after resident resubmit = %d, want 1", got)
	}
}

// TestAsyncJobFailure: a request that validates but whose pipeline
// fails (distinct ℓ=50 over the 14 Occupation values, which no release
// meets) lands in state "failed" with the pipeline's error, its release
// never materializes, and the sync form of the same request answers
// 422.
func TestAsyncJobFailure(t *testing.T) {
	s, ts := newTestServer(t, -1)
	ds := createDataset(t, ts, 120, 5)

	req := fmt.Sprintf(`{"dataset":%q,"model":"distinct","l":50`, ds)
	code, b := post(t, ts, "/v1/anonymize", req+`,"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async anonymize: status %d: %s", code, b)
	}
	sub := mustJSON[JobResponse](t, b)
	done := pollJob(t, ts, sub.Job)
	if done.State != "failed" || !strings.Contains(done.Error, privacy.ErrUnsatisfiable.Error()) {
		t.Fatalf("expected a failed job with an unsatisfiable error, got %+v", done)
	}
	if code, b := post(t, ts, "/v1/anonymize", req+`}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("sync anonymize: status %d, want 422: %s", code, b)
	}
	if code, _ := get(t, ts, "/v1/releases/"+sub.Release); code != http.StatusNotFound {
		t.Fatalf("failed job's release should 404, got %d", code)
	}
	if got := s.metrics.JobsFailed.Value(); got != 1 {
		t.Fatalf("jobs failed = %d, want 1", got)
	}
}

// TestJobQueueDedupAndBounds unit-tests the queue invariants that are
// racy to pin over HTTP: identical submissions collapse while a job is
// active, distinct ones fill the bounded queue, and a full queue
// rejects rather than blocks. No workers run, so states are frozen.
func TestJobQueueDedupAndBounds(t *testing.T) {
	q := newJobQueue(2)
	ds := &datasetEntry{id: "ds_test"}
	req := AnonymizeRequest{Dataset: "ds_test", Algo: "mondrian", Model: "bt"}

	j1, deduped, err := q.submit(ds, req, "rel_aaaa")
	if err != nil || deduped {
		t.Fatalf("first submit: deduped=%v err=%v", deduped, err)
	}
	j2, deduped, err := q.submit(ds, req, "rel_aaaa")
	if err != nil || !deduped || j2.id != j1.id {
		t.Fatalf("identical submission did not collapse: deduped=%v, %v vs %v", deduped, j2, j1)
	}
	if _, deduped, err := q.submit(ds, req, "rel_bbbb"); err != nil || deduped {
		t.Fatalf("second key: deduped=%v err=%v", deduped, err)
	}
	if _, _, err := q.submit(ds, req, "rel_cccc"); !errors.Is(err, errJobQueueFull) {
		t.Fatalf("expected errJobQueueFull, got %v", err)
	}
	if q.pending() != 2 {
		t.Fatalf("pending = %d, want 2", q.pending())
	}

	// Finishing releases the dedup slot (and, via the simulated worker
	// pickup, a queue slot): the same key enqueues afresh.
	if picked := <-q.ch; picked != j1 {
		t.Fatalf("queue order broken: got %v, want %v", picked.id, j1.id)
	}
	q.setRunning(j1)
	q.finish(j1, nil)
	j3, deduped, err := q.submit(ds, req, "rel_aaaa")
	if err != nil || deduped || j3.id == j1.id {
		t.Fatalf("post-completion resubmit should be a fresh job: deduped=%v err=%v", deduped, err)
	}
	if j1.state != jobDone {
		t.Fatalf("finished job state = %s, want done", j1.state)
	}
}

// TestDrainFinishesQueuedJobs: Drain blocks until accepted jobs reach
// a terminal state, and post-drain submissions are rejected with 503.
func TestDrainFinishesQueuedJobs(t *testing.T) {
	s, ts := newTestServerCfg(t, Config{Workers: -1, JobWorkers: 1})
	ds := createDataset(t, ts, 150, 8)

	var jobs []string
	for _, model := range []string{"distinct", "prob", "tclose"} {
		body := fmt.Sprintf(`{"dataset":%q,"model":%q,"async":true}`, ds, model)
		code, b := post(t, ts, "/v1/anonymize", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d: %s", model, code, b)
		}
		jobs = append(jobs, mustJSON[JobResponse](t, b).Job)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range jobs {
		code, b := get(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job %s after drain: status %d: %s", id, code, b)
		}
		if j := mustJSON[JobResponse](t, b); j.State != "done" {
			t.Errorf("job %s state %s after drain, want done", id, j.State)
		}
	}
	code, b := post(t, ts, "/v1/anonymize", fmt.Sprintf(`{"dataset":%q,"async":true}`, ds))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d (want 503): %s", code, b)
	}
	var e errorResponse
	if json.Unmarshal(b, &e) != nil || e.Error == "" {
		t.Fatalf("post-drain rejection missing error body: %s", b)
	}
}

// TestJobEndpointErrors covers the job lookup edge cases.
func TestJobEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, -1)
	if code, _ := get(t, ts, "/v1/jobs/job_nope"); code != http.StatusNotFound {
		t.Errorf("unknown job should 404, got %d", code)
	}
	if code, _ := get(t, ts, "/v1/jobs/"); code != http.StatusBadRequest {
		t.Errorf("empty job id should 400, got %d", code)
	}
	if code, _ := get(t, ts, "/v1/jobs/a/b"); code != http.StatusBadRequest {
		t.Errorf("nested job path should 400, got %d", code)
	}
}

// TestAnonymizeUnsatisfiableIs422 pins the release audit over HTTP: a
// requirement no release of the table meets is the request's fault, a
// 422 naming the requirement — never a 200 carrying a group that fails
// it. The async form fails its job with the same message, and neither
// form stores a release.
func TestAnonymizeUnsatisfiableIs422(t *testing.T) {
	_, ts := newTestServer(t, -1)
	ds := createDataset(t, ts, 200, 1)
	const want = "1000-anonymity+distinct-50-diversity"

	body := fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":1000,"l":50}`, ds)
	code, b := post(t, ts, "/v1/anonymize", body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("unsatisfiable anonymize: status %d (want 422): %s", code, b)
	}
	syncErr := mustJSON[errorResponse](t, b).Error
	if !strings.Contains(syncErr, want) {
		t.Errorf("422 body does not name %s: %s", want, b)
	}

	code, b = post(t, ts, "/v1/anonymize", strings.TrimSuffix(body, "}")+`,"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async anonymize: status %d: %s", code, b)
	}
	sub := mustJSON[JobResponse](t, b)
	done := pollJob(t, ts, sub.Job)
	if done.State != "failed" || !strings.HasSuffix(syncErr, done.Error) {
		t.Fatalf("async job = %+v, want failed with %q", done, syncErr)
	}
	if code, _ := get(t, ts, "/v1/releases/"+sub.Release); code != http.StatusNotFound {
		t.Fatalf("unsatisfiable release should 404, got %d", code)
	}
}
