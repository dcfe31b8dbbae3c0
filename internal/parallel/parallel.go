// Package parallel is the concurrency substrate for the
// anonymize→infer→measure pipeline: a bounded worker pool with
// deterministic ordered fan-in. Work is always identified by an index
// into a fixed range and results land in index-order slots, so a
// parallel run is bit-identical to the sequential one — no
// floating-point reassociation across work items, no output
// reordering. Callers reduce the ordered results sequentially.
//
// Worker-count convention, shared by every layer (core.Engine,
// kernel.Estimator, mondrian.Partitioner, experiments.Config, and the
// -workers flag on the cmd/ binaries):
//
//	n > 0   use exactly n workers
//	n == 0  use runtime.GOMAXPROCS(0) — all cores
//	n < 0   sequential (one worker, inline)
//
// core.WithWorkers is the one deliberate exception: there any n ≤ 0
// requests the sequential path outright (the option's regression
// contract), while omitting the option uses all cores. Callers
// forwarding a user-supplied setting to it go through Resolve first.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a worker-count setting to an effective pool size using
// the package convention: n > 0 → n, n == 0 → GOMAXPROCS, n < 0 → 1.
func Resolve(n int) int {
	switch {
	case n > 0:
		return n
	case n == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// For runs fn(i) for every i in [0, n), using at most
// Resolve(workers) goroutines. With one effective worker (or n ≤ 1)
// it runs inline on the calling goroutine, byte-for-byte the
// sequential loop. fn must be safe for concurrent invocation on
// distinct indexes; indexes are claimed atomically so each runs
// exactly once.
func For(workers, n int, fn func(i int)) {
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// MapErr runs fallible fn over [0, n) with the pool and returns the
// results in index order — the deterministic fan-in: out[i] is fn(i)
// regardless of which worker computed it or when. All indexes run (an
// error does not cancel in-flight siblings — work items are cheap and
// independent); the error reported is the lowest-index one, so failure
// is as deterministic as success.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	For(workers, n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Limiter bounds the goroutines a divide-and-conquer recursion may
// spawn. Unlike For, recursion does not know its work items up front;
// it asks for a token at each branch point and falls back to
// sequential descent when none is available. A nil or zero-capacity
// Limiter never grants tokens, so the recursion degrades to the plain
// sequential algorithm.
type Limiter struct {
	sem chan struct{}
}

// NewLimiter returns a limiter granting at most extra concurrent
// tokens; extra ≤ 0 yields a limiter that always refuses (sequential).
func NewLimiter(extra int) *Limiter {
	if extra <= 0 {
		return &Limiter{}
	}
	return &Limiter{sem: make(chan struct{}, extra)}
}

// TryAcquire claims a token without blocking, reporting success. Safe
// on a nil limiter (always false).
func (l *Limiter) TryAcquire() bool {
	if l == nil || l.sem == nil {
		return false
	}
	select {
	case l.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a token claimed by TryAcquire.
func (l *Limiter) Release() { <-l.sem }

// Go runs fn on its own goroutine under a token the caller already
// claimed with TryAcquire, releasing the token when fn returns. The
// returned wait blocks until fn has finished. It is the sanctioned
// spawn for divide-and-conquer recursion: the caller descends one
// branch inline, Go takes the other, and wait() joins them before the
// caller merges results — so fan-in order stays deterministic even
// though execution overlaps.
func (l *Limiter) Go(fn func()) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer l.Release()
		fn()
	}()
	return func() { <-done }
}

// Workers launches n long-lived goroutines running fn(0) … fn(n-1) and
// returns wait, which blocks until every worker has returned. Unlike
// For, the workers are not fed from an index range — each owns its
// slot for the process's lifetime (servers draining a channel, load
// generators) and decides for itself when to stop, typically by its
// feed channel closing.
func Workers(n int, fn func(i int)) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	return wg.Wait
}

// WaitContext waits for wait() to return, giving up when the context
// expires first. The abandoned wait keeps running on its own
// goroutine; callers use this for graceful-shutdown deadlines where
// the process is about to exit anyway.
func WaitContext(ctx context.Context, wait func()) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
