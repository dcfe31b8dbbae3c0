// Command perfbench is the repository's benchmark: it boots the
// serving layer in-process with the cmd/serve defaults, serves it on a
// loopback listener, drives one workload against it over HTTP, checks
// every response against an in-process reference engine, and prints
// the workload's metrics as one JSON object on the last line.
//
// Usage:
//
//	perfbench --workload warm_reads|onboard_cold|mixed --seed N
//	          --seconds S --trace 0|1 [--read-rate R]
//
// With --trace 0 it measures the end-to-end metrics with the
// benchmark's own spans off; with --trace 1 it reruns the workload with
// spans on and replays one request of each kind through the modules'
// public functions to report the per-layer metrics. See METRICS.md for
// what each metric means and which workload should move it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: warm_reads, onboard_cold or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (tables, request draws)")
	flag.IntVar(&seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Float64Var(&cfg.readRate, "read-rate", 70, "open-loop read rate of mixed, requests/s")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.setups = setups
	cfg.spansPath = filepath.Join(".bench_build", "spans-"+cfg.workload+"-"+strconv.FormatInt(cfg.seed, 10)+".jsonl")
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func (c config) validate() error {
	known := false
	for _, w := range workloads {
		known = known || c.workload == w
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (want warm_reads, onboard_cold or mixed)", c.workload)
	case c.window <= 0:
		return fmt.Errorf("--seconds must be positive")
	case c.readRate <= 0:
		return fmt.Errorf("--read-rate must be positive")
	}
	return nil
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

// run executes one benchmark invocation.
func run(cfg config) (*result, error) {
	e, setupTimes, err := setupAll(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.srv.close()
	if err := e.verifySetup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if cfg.trace {
		return traced(cfg, e)
	}
	calBefore := calibrate(5)
	w := runWindow(cfg, e, cfg.window, nil)
	cal := (calBefore + calibrate(5)) / 2
	res := &result{Metrics: metrics{}}
	put := res.Metrics.put
	put("setup_s", median(setupTimes), "s")
	// The workload's operation: reads on warm_reads; flows on
	// onboard_cold; on mixed, throughput counts the closed-loop flows
	// (the reads' rate is fixed by the schedule) and latency the
	// open-loop reads, timed from their due time. Throughput and tail
	// are medians over the window's ~2 s slices (see sliceLen). The
	// tail is the highest percentile that stays steady across runs:
	// p99 of warm_reads' reads, p90 of the flows and of mixed's reads,
	// whose higher percentiles swing with how reads happen to line up
	// against the flows' cold passes.
	rl, fl := w.readLatencies(-1), w.flowLatencies()
	secs := w.elapsed.Seconds()
	sl := sliceWindow(w.start, cfg.window)
	switch cfg.workload {
	case warmReads:
		put("ops_rps", sl.rate(w.readOps()), "1/s")
		put("op_p50_ms", median(rl), "ms")
		put("op_tail_ms", sl.quantile(w.readOps(), 0.99), "ms")
	case onboardCold:
		put("ops_rps", sl.rate(w.flowOps()), "1/s")
		put("op_p50_ms", median(fl), "ms")
		put("op_tail_ms", sl.quantile(w.flowOps(), 0.90), "ms")
	case mixed:
		put("ops_rps", sl.rate(w.flowOps()), "1/s")
		put("op_p50_ms", median(rl), "ms")
		put("op_tail_ms", sl.quantile(w.readOps(), 0.90), "ms")
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d reads, %d flows in %.1fs; set-ups %v; host calibration %.3f ms\n",
		cfg.workload, cfg.seed, len(rl), len(fl), secs, setupTimes, cal)
	fmt.Fprintf(os.Stderr, "perfbench: read ms p50/p90/p95/p99 %.2f/%.2f/%.2f/%.2f; flow ms p50/p90 %.2f/%.2f\n",
		median(rl), quantile(rl, 0.9), quantile(rl, 0.95), quantile(rl, 0.99), median(fl), quantile(fl, 0.9))
	attempted, failed, errs := w.countReads()
	// The live heap is taken per resident release: each release pins
	// its dataset's engine and prior caches, and a faster server
	// completes more flows, so the absolute heap would grow with speed.
	// The read samples are dropped first for the same reason.
	w.reads = nil
	snap, err := e.srv.metrics()
	if err != nil {
		return nil, err
	}
	put("heap_mb_per_release", liveHeapMB()/float64(snap.Store.Releases), "MB")
	fa, ff, ferrs := w.verifyFlows()
	res.Attempted, res.Failed = attempted+fa, failed+ff
	res.Correct = res.Failed == 0
	logErrs(append(errs, ferrs...))
	return res, nil
}

// verifySetup checks the set-up's recorded responses against the
// reference engine (untimed).
func (e *env) verifySetup() error {
	if e.warm != nil {
		refs := make([]*reference, len(e.warm.csvs))
		for i, csv := range e.warm.csvs {
			ref, err := newReference(csv)
			if err != nil {
				return err
			}
			refs[i] = ref
		}
		if err := e.warm.verify(refs); err != nil {
			return fmt.Errorf("warm set: %w", err)
		}
	}
	if e.warmup != nil {
		if _, err := e.warmup.verify(); err != nil {
			return fmt.Errorf("warm-up flow: %w", err)
		}
	}
	return nil
}

func logErrs(errs []string) {
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
}
