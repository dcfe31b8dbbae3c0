package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/parallel"
	"repro/internal/service"
)

// Workload names.
const (
	warmReads   = "warm_reads"
	onboardCold = "onboard_cold"
	mixed       = "mixed"
)

var workloads = []string{warmReads, onboardCold, mixed}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// readRate is the open-loop read rate of mixed, in requests/s.
	readRate float64
	// setups is how many times the set-up runs (its median is setup_s).
	setups int
	// spansPath is where a traced run writes its spans.
	spansPath string
}

func (c config) warm() bool  { return c.workload != onboardCold }
func (c config) flows() bool { return c.workload != warmReads }

// env is one set-up service instance and the verified state the
// workload reads.
type env struct {
	srv    *server
	warm   *warmSet
	warmup *flow
	// flowsRun numbers the onboarding flows so every flow of the run
	// gets a table never seen before; windows numbers the measurement
	// windows so each draws its own reads.
	flowsRun, windows int
}

// setup boots the service with the serve defaults and prepares the
// workload's state: for warm_reads and mixed, the warm set (upload,
// four releases, every prior on the grid cached); for onboard_cold and
// mixed, one warm-up onboarding flow on a table outside the measured
// ones, so the first measured flow pays no first-request costs.
func setup(cfg config, warmCSVs [][]byte, warmupCSV []byte) (*env, error) {
	srv, err := boot(service.Config{})
	if err != nil {
		return nil, err
	}
	e := &env{srv: srv}
	if cfg.warm() {
		if e.warm, err = buildWarmSet(srv, warmCSVs, warmConfigs(), warmGrid); err != nil {
			srv.close()
			return nil, err
		}
	}
	if cfg.flows() {
		f := runFlow(srv, tableSeed(cfg.seed, streamWarmup, 0), warmupCSV, nil)
		if f.failed {
			srv.close()
			return nil, fmt.Errorf("warm-up flow failed at step %d", len(f.steps))
		}
		e.warmup = &f
	}
	return e, nil
}

// setupAll runs the set-up cfg.setups times, keeping the last instance,
// and returns it with every set-up's duration. Inputs are generated
// first, outside the timing.
func setupAll(cfg config) (*env, []float64, error) {
	var warmCSVs [][]byte
	var warmupCSV []byte
	var err error
	if cfg.warm() {
		if warmCSVs, err = warmTableCSVs(cfg.seed); err != nil {
			return nil, nil, err
		}
	}
	if cfg.flows() {
		if warmupCSV, err = tableCSV(tableSeed(cfg.seed, streamWarmup, 0)); err != nil {
			return nil, nil, err
		}
	}
	var times []float64
	var e *env
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.srv.close()
		}
		start := time.Now()
		if e, err = setup(cfg, warmCSVs, warmupCSV); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		runtime.GC()
	}
	return e, times, nil
}

// readSample is one warm read. Its latency runs from the request's due
// time on the open loop and from its send on the closed loop.
type readSample struct {
	kind  readKind
	start time.Time
	lat   time.Duration
	reqID string
	ok    bool
}

// window is what one measurement window produced.
type window struct {
	reads []readSample
	flows []flow
	late  []float64 // open-loop lateness, ms
	// dropped counts open-loop reads never sent (see openLoopGrace).
	dropped int
	start   time.Time
	elapsed time.Duration
}

func (w *window) merge(o window) {
	w.reads = append(w.reads, o.reads...)
	w.flows = append(w.flows, o.flows...)
	w.late = append(w.late, o.late...)
	w.dropped += o.dropped
	w.elapsed += o.elapsed
}

// readLatencies returns the read latencies in ms, optionally of one
// kind only (kind < 0 selects all).
func (w *window) readLatencies(kind readKind) []float64 {
	var out []float64
	for _, r := range w.reads {
		if kind < 0 || r.kind == kind {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

// readOps returns every read as an operation for the sliced statistics.
func (w *window) readOps() []op {
	out := make([]op, len(w.reads))
	for i, r := range w.reads {
		out[i] = op{start: r.start, lat: r.lat}
	}
	return out
}

// flowOps returns every flow as an operation for the sliced statistics.
func (w *window) flowOps() []op {
	out := make([]op, len(w.flows))
	for i, f := range w.flows {
		out[i] = op{start: f.start, lat: f.took}
	}
	return out
}

func (w *window) flowLatencies() []float64 {
	out := make([]float64, len(w.flows))
	for i, f := range w.flows {
		out[i] = ms(f.took)
	}
	return out
}

// stepLatencies returns the latencies of one flow step in ms.
func (w *window) stepLatencies(step int) []float64 {
	var out []float64
	for _, f := range w.flows {
		if step < len(f.steps) {
			out = append(out, ms(f.steps[step].took))
		}
	}
	return out
}

// runWindow drives the workload's load for d. rec, when non-nil,
// records a span per request.
func runWindow(cfg config, e *env, d time.Duration, rec *recorder) window {
	start := time.Now()
	deadline := start.Add(d)
	e.windows++
	var w window
	switch cfg.workload {
	case warmReads:
		parts := make([]window, maxConns)
		parallel.For(maxConns, maxConns, func(c int) {
			parts[c] = closedReader(e, deadline, rngFor(cfg.seed, e.windows, c), rec)
		})
		for _, p := range parts {
			w.merge(p)
		}
	case onboardCold:
		w = onboarder(cfg, e, deadline, rec)
	case mixed:
		// One onboarding client beside one open-loop reader: two
		// connections, two goroutines.
		parts := make([]window, 2)
		parallel.For(2, 2, func(c int) {
			if c == 0 {
				parts[0] = onboarder(cfg, e, deadline, rec)
			} else {
				parts[1] = openReader(e, deadline, cfg.readRate, rngFor(cfg.seed, e.windows, c), rec)
			}
		})
		w.merge(parts[0])
		w.merge(parts[1])
	}
	w.start, w.elapsed = start, time.Since(start)
	return w
}

func rngFor(seed int64, epoch, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(epoch)*131 + int64(client)))
}

// draw picks a read from a weighted mix: kind, release, grid point.
func draw(rng *rand.Rand, mix []readKind, ws *warmSet) (readKind, int, int) {
	return mix[rng.Intn(len(mix))], rng.Intn(len(ws.rels)), rng.Intn(len(ws.grid))
}

// closedReader sends warm reads back to back until the deadline.
func closedReader(e *env, deadline time.Time, rng *rand.Rand, rec *recorder) window {
	var w window
	for time.Now().Before(deadline) {
		kind, rel, bi := draw(rng, readMix, e.warm)
		start := time.Now()
		r, ok := e.warm.read(e.srv, kind, rel, bi)
		lat := time.Since(start)
		rec.add("http."+readNames[kind], r.reqID, 0, start, lat)
		w.reads = append(w.reads, readSample{kind: kind, start: start, lat: lat, reqID: r.reqID, ok: ok})
	}
	return w
}

// openLoopGrace is how long past the window an open-loop reader keeps
// working off a backlog before it drops the reads still due.
const openLoopGrace = time.Second

// openReader sends warm reads on a fixed schedule of rate per second,
// on one connection, regardless of how fast replies come back. Each
// read's latency runs from its due time, so a stall also charges the
// reads queued behind it; lateness is how far behind schedule the
// generator sent.
func openReader(e *env, deadline time.Time, rate float64, rng *rand.Rand, rec *recorder) window {
	var w window
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		if sent.After(deadline.Add(openLoopGrace)) {
			// The system fell so far behind that the backlog outlives
			// the window: every read still unsent is dropped, and a
			// dropped read is a failed one.
			w.dropped = int(deadline.Sub(due)/interval) + 1
			break
		}
		kind, rel, bi := draw(rng, mixedReadMix, e.warm)
		r, ok := e.warm.read(e.srv, kind, rel, bi)
		lat := time.Since(due)
		rec.add("http."+readNames[kind], r.reqID, 0, due, lat)
		w.late = append(w.late, ms(sent.Sub(due)))
		w.reads = append(w.reads, readSample{kind: kind, start: due, lat: lat, reqID: r.reqID, ok: ok})
	}
	return w
}

// onboarder runs onboarding flows back to back until the deadline,
// each on a table never seen before in the run. Rendering the next
// table's CSV is the publisher's own work and is not timed.
func onboarder(cfg config, e *env, deadline time.Time, rec *recorder) window {
	var w window
	for time.Now().Before(deadline) {
		seed := tableSeed(cfg.seed, streamFlow, e.flowsRun)
		e.flowsRun++
		csv, err := tableCSV(seed)
		if err != nil {
			w.flows = append(w.flows, flow{genSeed: seed, failed: true})
			continue
		}
		w.flows = append(w.flows, runFlow(e.srv, seed, csv, rec))
	}
	return w
}

// countReads counts the window's reads and open-loop drops; reads
// were compared byte for byte with the verified bodies as they
// arrived. It returns the first failures' descriptions for the log.
func (w *window) countReads() (attempted, failed int64, errs []string) {
	for _, r := range w.reads {
		attempted++
		if !r.ok {
			failed++
			if len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("read %s (request %s) did not match the verified body", readNames[r.kind], r.reqID))
			}
		}
	}
	if w.dropped > 0 {
		errs = append(errs, fmt.Sprintf("%d open-loop reads dropped behind schedule", w.dropped))
	}
	return attempted + int64(w.dropped), failed + int64(w.dropped), errs
}

// verifyFlows recomputes every flow of the window on a reference
// engine, after the timed window.
func (w *window) verifyFlows() (attempted, failed int64, errs []string) {
	for i := range w.flows {
		attempted++
		if _, err := w.flows[i].verify(); err != nil {
			failed++
			if len(errs) < 5 {
				errs = append(errs, err.Error())
			}
		}
	}
	return attempted, failed, errs
}

// tally is countReads plus verifyFlows.
func (w *window) tally() (attempted, failed int64, errs []string) {
	ra, rf, rerrs := w.countReads()
	fa, ff, ferrs := w.verifyFlows()
	return ra + fa, rf + ff, append(rerrs, ferrs...)
}

// liveHeapMB forces a collection and reports the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
