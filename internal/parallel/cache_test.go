package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheEviction checks capacity enforcement, recency refresh on
// get, and the eviction callback.
func TestCacheEviction(t *testing.T) {
	s := NewCache[int](2)
	var evicted []string
	s.OnEvict = func(k string) { evicted = append(evicted, k) }

	s.Put("a", 1)
	s.Put("b", 2)
	if _, ok := s.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a not resident")
	}
	s.Put("c", 3)
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a should have survived (refreshed before insert)")
	}
	if _, ok := s.Get("c"); !ok {
		t.Fatal("c should be resident")
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
}

// TestCacheDoSingleflight checks that concurrent identical requests
// run the computation exactly once, that followers report shared
// provenance, and that later calls hit the resident entry.
func TestCacheDoSingleflight(t *testing.T) {
	s := NewCache[int](4)
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	var hits, shares, misses atomic.Int64
	count := func(src Outcome) {
		switch src {
		case Hit:
			hits.Add(1)
		case Shared:
			shares.Add(1)
		default:
			misses.Add(1)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, src, err := s.Do("k", func() (int, error) {
			close(started)
			<-release
			runs.Add(1)
			return 42, nil
		})
		if v != 42 || err != nil {
			t.Errorf("leader got (%d, %v)", v, err)
		}
		count(src)
	}()
	<-started
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, src, err := s.Do("k", func() (int, error) {
				runs.Add(1)
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("follower got (%d, %v)", v, err)
			}
			count(src)
		}()
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != misses.Load() {
		t.Fatalf("compute ran %d times for %d misses", got, misses.Load())
	}
	if misses.Load() < 1 || misses.Load()+shares.Load()+hits.Load() != 8 {
		t.Fatalf("provenance split hits=%d shares=%d misses=%d does not cover 8 calls",
			hits.Load(), shares.Load(), misses.Load())
	}

	// Resident now: no recomputation, hit provenance.
	v, src, err := s.Do("k", func() (int, error) { runs.Add(1); return 0, nil })
	if v != 42 || err != nil || src != Hit {
		t.Fatalf("resident call got (%d, %v, src=%d)", v, err, src)
	}
}

// TestCacheDoErrorNotCached checks that failed computations leave
// nothing behind: the next call retries.
func TestCacheDoErrorNotCached(t *testing.T) {
	s := NewCache[int](4)
	var runs atomic.Int64
	fail := func() (int, error) { runs.Add(1); return 0, errors.New("test failure") }
	if _, _, err := s.Do("k", fail); err == nil {
		t.Fatal("want error")
	}
	if v, src, err := s.Do("k", func() (int, error) { runs.Add(1); return 9, nil }); v != 9 || err != nil || src != Miss {
		t.Fatalf("retry got (%d, src=%d, %v)", v, src, err)
	}
	if runs.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2", runs.Load())
	}
}
