package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(4); got != 4 {
		t.Errorf("Resolve(4) = %d", got)
	}
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{-1, -8} {
		if got := Resolve(n); got != 1 {
			t.Errorf("Resolve(%d) = %d, want 1 (sequential)", n, got)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 1, 2, 7, 64} {
		const n = 1000
		counts := make([]int64, n)
		For(workers, n, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak int64
	For(workers, 200, func(i int) {
		a := atomic.AddInt64(&active, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if a <= p || atomic.CompareAndSwapInt64(&peak, p, a) {
				break
			}
		}
		runtime.Gosched()
		atomic.AddInt64(&active, -1)
	})
	if peak > workers {
		t.Errorf("observed %d concurrent invocations, pool bounded at %d", peak, workers)
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	ran := 0
	For(8, 0, func(int) { ran++ })
	if ran != 0 {
		t.Errorf("For over empty range ran %d times", ran)
	}
	For(8, 1, func(int) { ran++ })
	if ran != 1 {
		t.Errorf("For over single index ran %d times", ran)
	}
}

func TestMapErrReportsLowestIndex(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	_, err := MapErr(8, 50, func(i int) (int, error) {
		switch i {
		case 7:
			return 0, errLow
		case 30:
			return 0, errHigh
		}
		return i, nil
	})
	if err != errLow {
		t.Errorf("MapErr error = %v, want lowest-index error %v", err, errLow)
	}
}

// TestMapOrdered checks the deterministic fan-in: a clean MapErr run
// returns out[i] = fn(i) at any pool size.
func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		out, err := MapErr(workers, 100, func(i int) (string, error) { return fmt.Sprintf("v%03d", i), nil })
		if err != nil {
			t.Fatalf("workers=%d: MapErr clean run: %v", workers, err)
		}
		for i, v := range out {
			if want := fmt.Sprintf("v%03d", i); v != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, v, want)
			}
		}
	}
}

func TestLimiter(t *testing.T) {
	var nilLim *Limiter
	if nilLim.TryAcquire() {
		t.Error("nil limiter granted a token")
	}
	if NewLimiter(0).TryAcquire() {
		t.Error("zero-capacity limiter granted a token")
	}
	l := NewLimiter(2)
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("limiter refused tokens under capacity")
	}
	if l.TryAcquire() {
		t.Error("limiter granted a third token with capacity 2")
	}
	l.Release()
	if !l.TryAcquire() {
		t.Error("limiter refused a token after release")
	}
}
