package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// jobState is the lifecycle of an async anonymize job:
//
//	queued → running → done
//	               └─→ failed
type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
)

// job is one async anonymize submission. The release id is known at
// submission time (it is the content address of the normalized
// request), so clients can poll either the job or the release. The job
// pins its dataset entry, keeping the engine alive across LRU eviction
// for as long as the job might still run; finish drops the pin so
// terminal jobs lingering in the poll history don't defeat the
// dataset LRU (dataset keeps the id copy for reporting).
type job struct {
	id      string
	release string
	dataset string
	ds      *datasetEntry
	req     AnonymizeRequest

	// Mutable state below, guarded by the owning queue's mutex.
	state    jobState
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
}

// jobHistory bounds how many terminal (done/failed) jobs stay pollable
// before the oldest are forgotten; queued and running jobs are never
// evicted.
const jobHistory = 1024

var (
	// errJobQueueFull rejects submissions when the bounded queue is at
	// capacity — the client should retry or fall back to synchronous.
	errJobQueueFull = errors.New("service: job queue is full")
	// errDraining rejects submissions during graceful shutdown.
	errDraining = errors.New("service: server is draining, not accepting jobs")
)

// jobQueue is the bounded async-anonymize queue: submissions land in a
// fixed-capacity channel drained by the server's job workers, identical
// in-flight submissions collapse into one job, and terminal jobs stay
// pollable until evicted by the history bound.
type jobQueue struct {
	mu       sync.Mutex
	seq      int64
	jobs     map[string]*job
	active   map[string]string // release id → job id, queued/running only
	finished []string          // terminal job ids, oldest first
	ch       chan *job
	closed   bool
	wait     func() // joins the worker pool; set by startJobWorkers
}

func newJobQueue(depth int) *jobQueue {
	if depth < 1 {
		depth = 1
	}
	return &jobQueue{
		jobs:   map[string]*job{},
		active: map[string]string{},
		ch:     make(chan *job, depth),
	}
}

// submit enqueues an async anonymize request. A queued or running job
// for the same release collapses into that job (deduped=true) — the
// queue-level face of the singleflight guarantee; the release store
// dedups the computation itself for everything else (sync racers,
// back-to-back resubmissions).
func (q *jobQueue) submit(ds *datasetEntry, req AnonymizeRequest, releaseID string) (*job, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false, errDraining
	}
	if jid, ok := q.active[releaseID]; ok {
		return q.jobs[jid], true, nil
	}
	j := q.newJobLocked(ds, req, releaseID, jobQueued)
	select {
	case q.ch <- j:
	default:
		return nil, false, errJobQueueFull
	}
	q.jobs[j.id] = j
	q.active[releaseID] = j.id
	return j, false, nil
}

// complete records a submission whose release was already resident:
// the job is born terminal — pollable like any other, but it never
// occupies a queue slot or makes a client wait behind real work.
func (q *jobQueue) complete(ds *datasetEntry, req AnonymizeRequest, releaseID string) (*job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, errDraining
	}
	j := q.newJobLocked(ds, req, releaseID, jobDone)
	q.jobs[j.id] = j
	q.retireLocked(j.id)
	return j, nil
}

// newJobLocked mints the queue's next job for a release, born in state
// (queued, or done for a resident release). Only a queued job pins its
// dataset entry: it may still run. Caller holds q.mu.
func (q *jobQueue) newJobLocked(ds *datasetEntry, req AnonymizeRequest, releaseID string, state jobState) *job {
	q.seq++
	j := &job{
		id:      fmt.Sprintf("job_%08x", q.seq),
		release: releaseID,
		dataset: ds.id,
		req:     req,
		state:   state,
		created: time.Now(),
	}
	if state == jobQueued {
		j.ds = ds
	} else {
		j.started, j.finished = j.created, j.created
	}
	return j
}

// pending returns the number of jobs queued but not yet picked up.
func (q *jobQueue) pending() int {
	return len(q.ch)
}

// get returns the job by id.
func (q *jobQueue) get(id string) (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// setRunning marks a job as picked up by a worker.
func (q *jobQueue) setRunning(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.state = jobRunning
	j.started = time.Now()
}

// finish moves a job to its terminal state, releases its dedup slot
// and dataset pin, and evicts the oldest terminal jobs beyond the
// history bound.
func (q *jobQueue) finish(j *job, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.finished = time.Now()
	if err != nil {
		j.state = jobFailed
		j.errMsg = err.Error()
	} else {
		j.state = jobDone
	}
	j.ds = nil // terminal jobs must not keep evicted engines alive
	delete(q.active, j.release)
	q.retireLocked(j.id)
}

// retireLocked appends a terminal job to the poll history, evicting
// the oldest entries beyond the bound. Caller holds q.mu.
func (q *jobQueue) retireLocked(id string) {
	q.finished = append(q.finished, id)
	for len(q.finished) > jobHistory {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
}

// snapshot returns the job's API view. The queue lock makes the read
// consistent (workers mutate jobs under the same lock).
func (q *jobQueue) snapshot(j *job) JobResponse {
	q.mu.Lock()
	defer q.mu.Unlock()
	resp := JobResponse{
		Job:     j.id,
		State:   string(j.state),
		Release: j.release,
		Dataset: j.dataset,
		Error:   j.errMsg,
	}
	if !j.started.IsZero() {
		resp.QueuedSeconds = j.started.Sub(j.created).Seconds()
	}
	if !j.finished.IsZero() {
		resp.RunSeconds = j.finished.Sub(j.started).Seconds()
	}
	return resp
}

// drain stops accepting submissions and waits — up to the context
// deadline — for the workers to finish every queued job.
func (q *jobQueue) drain(ctx context.Context) error {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	wait := q.wait
	q.mu.Unlock()
	if wait == nil {
		return nil // no worker pool was ever started
	}
	if err := parallel.WaitContext(ctx, wait); err != nil {
		return fmt.Errorf("service: job drain: %w", err)
	}
	return nil
}

// startJobWorkers launches the pool that drains the queue. Each worker
// runs one pipeline at a time; the pipelines themselves parallelize
// internally on the engine pool, so a small worker count keeps the
// machine busy without oversubscribing it.
func (s *Server) startJobWorkers(n int) {
	wait := parallel.Workers(n, func(int) {
		for j := range s.jobs.ch {
			s.jobs.setRunning(j)
			s.metrics.JobsRunning.Add(1)
			// Each job gets its own trace, named by the job id so log
			// lines, poll responses, and /debug/traces join on one
			// handle; the pipeline's stage spans hang off its root.
			tc := s.tracer.StartNamed(j.id, "job anonymize")
			ctx := obs.ContextWithSpan(context.Background(), tc.Root())
			_, src, err := s.resolveOrCompute(ctx, j.ds, j.req, j.release)
			tc.Root().SetOutcome(src.String())
			if err != nil {
				tc.SetStatus(500)
			} else {
				tc.SetStatus(200)
			}
			tc.Finish()
			s.metrics.JobsRunning.Add(-1)
			s.jobs.finish(j, err)
			if err != nil {
				s.metrics.JobsFailed.Add(1)
			} else {
				s.metrics.JobsDone.Add(1)
			}
		}
	})
	s.jobs.mu.Lock()
	s.jobs.wait = wait
	s.jobs.mu.Unlock()
}

// Drain gracefully shuts the async subsystem down: new submissions are
// rejected with 503 and the call blocks until queued jobs finish or
// the context expires. cmd/serve calls this on SIGTERM after the HTTP
// listener has stopped.
func (s *Server) Drain(ctx context.Context) error {
	return s.jobs.drain(ctx)
}
