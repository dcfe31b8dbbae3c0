package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distance"
	"repro/internal/inference"
	"repro/internal/privacy"
	"repro/internal/prob"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the benchmark's spans in memory. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
//
// Spans nest through an explicit stack: open pushes, close pops, and a
// span opened while another is on top becomes its child. The stack is
// shared, so nesting is only meaningful for sequential callers — the
// traced replay runs its wrapped engine on one worker for this reason.
// Roots opened from concurrent goroutines (HTTP requests) pass their
// parent explicitly instead.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	stack []int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a span under the innermost open span and returns its id.
func (r *recorder) open(name string) int64 {
	if r == nil {
		return 0
	}
	id := r.next.Add(1)
	r.mu.Lock()
	var parent int64
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.stack = append(r.stack, id)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: r.now()})
	r.mu.Unlock()
	return id
}

// close ends the innermost open span, which must be id.
func (r *recorder) close(id int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.stack)
	if n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	r.stack = r.stack[:n-1]
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].ID == id {
			r.spans[i].End = end
			return
		}
	}
}

// add records a finished span measured by the caller (HTTP requests,
// which run concurrently and so cannot use the stack).
func (r *recorder) add(name, req string, parent int64, start time.Time, took time.Duration) int64 {
	if r == nil {
		return 0
	}
	id := r.next.Add(1)
	s := span{ID: id, Parent: parent, Name: name, Req: req, Start: int64(start.Sub(r.epoch))}
	s.End = s.Start + int64(took)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// layerStats aggregates the spans named name that descend from root:
// how many, and their summed self time in nanoseconds.
func layerStats(spans []span, self map[int64]int64, root int64, name string) (calls int, selfNS int64) {
	parent := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	under := func(id int64) bool {
		for id != 0 {
			if id == root {
				return true
			}
			id = parent[id]
		}
		return false
	}
	for _, s := range spans {
		if s.Name == name && under(s.ID) {
			calls++
			selfNS += self[s.ID]
		}
	}
	return calls, selfNS
}

// timedMethod wraps the engine's inference method: every Posteriors
// call is a span and a count.
type timedMethod struct {
	inner inference.Method
	rec   *recorder
	calls atomic.Int64
}

func (m *timedMethod) Posteriors(priors []prob.Dist, counts []int) []prob.Dist {
	m.calls.Add(1)
	id := m.rec.open("inference.Posteriors")
	out := m.inner.Posteriors(priors, counts)
	m.rec.close(id)
	return out
}

func (m *timedMethod) Name() string { return m.inner.Name() }

// timedMeasure wraps the engine's disclosure measure.
type timedMeasure struct {
	inner distance.Measure
	rec   *recorder
	calls atomic.Int64
}

func (m *timedMeasure) Distance(p, q prob.Dist) float64 {
	m.calls.Add(1)
	id := m.rec.open("distance.Distance")
	d := m.inner.Distance(p, q)
	m.rec.close(id)
	return d
}

func (m *timedMeasure) Name() string { return m.inner.Name() }

// timedRequirement wraps the privacy requirement Mondrian checks every
// candidate split against.
type timedRequirement struct {
	inner privacy.Requirement
	rec   *recorder
	calls atomic.Int64
}

func (r *timedRequirement) Satisfied(rows []int) bool {
	r.calls.Add(1)
	id := r.rec.open("privacy.Satisfied")
	ok := r.inner.Satisfied(rows)
	r.rec.close(id)
	return ok
}

func (r *timedRequirement) Name() string { return r.inner.Name() }
