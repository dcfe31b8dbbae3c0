package parallel

import (
	"errors"
	"sync"
)

// flightCall is one in-flight computation shared by duplicate callers.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group deduplicates concurrent calls by key: while a computation for
// a key is in flight, callers arriving with the same key block and
// share its result instead of duplicating the work. Once the call
// completes the key is forgotten — Group is pure request dedup, not a
// cache; Cache layers bounded memoization on top of it. The zero value
// is ready to use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

// Do runs compute for key, or — if an identical call is already in
// flight — blocks until it finishes and shares its result. The shared
// return reports whether this caller piggybacked on another's
// computation rather than running compute itself.
func (g *Group[V]) Do(key string, compute func() (V, error)) (val V, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flightCall[V]{}
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	// Deregister and release waiters even if compute panics: the panic
	// propagates to this caller (whose server stack recovers it), while
	// waiters get an error rather than blocking forever on a key that
	// can never complete.
	completed := false
	defer func() {
		if !completed {
			c.err = ErrFlightPanicked
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = compute()
	completed = true
	return c.val, false, c.err
}

// ErrFlightPanicked is reported to waiters whose shared computation
// panicked in the caller that ran it.
var ErrFlightPanicked = errors.New("parallel: singleflight computation panicked")
