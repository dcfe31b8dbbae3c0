// Command loadgen drives a running serve instance closed-loop: it
// ingests a dataset, warms one release per (model, parameter-set)
// pair, then has -concurrency workers fire a weighted scenario mix of
// anonymize / attack / risk requests for -duration, and prints a
// throughput/latency report plus the server's own cache and latency
// counters. This is the measurable form of the ROADMAP's "heavy
// traffic" claim: anonymize requests after warmup are release-store
// hits, attacks run on warm engines, and the report shows both sides.
//
// Usage:
//
//	loadgen [-addr http://127.0.0.1:8080] [-concurrency C] [-duration D]
//	        [-n N] [-seed S] [-mix anonymize:1,attack:4,risk:2] [-models distinct,bt]
//	        [-schema spec.json] [-async] [-sweep] [-inference omega,adaptive]
//
// -schema registers the given declarative spec over POST /v1/schemas,
// ingests a second dataset under it, and warms its releases alongside
// the Adult ones, so the steady-state mix drives multi-schema traffic
// and the server's cache ledger exercises schema-keyed addressing.
//
// -sweep switches the attack and risk scenarios to the bprimes form:
// each request carries the whole b' grid and the server evaluates it
// in one request (one inference dispatch over the grid, one prior pass
// per uncached bandwidth); the report's sweeps line shows the achieved
// points-per-request amortization.
//
// -inference mixes posterior-inference method overrides into the
// attack and risk scenarios: each request draws one entry from the
// comma-separated list ("omega" — or empty — sends no override) and
// the report keys latency rows per method, e.g. attack(adaptive) next
// to plain attack. Because the server's attack caches are method-keyed,
// this drives mixed-method traffic against the same releases without
// cross-pollination — the separation the service tests pin.
//
// -async switches the anonymize scenario to the job API: each request
// submits with "async": true, takes the 202 + job handle, and polls
// GET /v1/jobs/{id} until the job is done or failed — the sample's
// latency is the full submit→done round trip, and the report's
// anonymize row measures the queue, not just the store.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/service"
)

// scenario is one weighted entry of the request mix.
type scenario struct {
	name   string
	weight int
}

// sample is one completed request.
type sample struct {
	op string
	d  time.Duration
	ok bool
}

// client wraps the HTTP plumbing shared by warmup and workers.
type client struct {
	base string
	http *http.Client
}

func (c *client) postJSON(path string, body string, out any) (int, error) {
	resp, err := c.http.Post(c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (c *client) getJSON(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// anonymizeAsync drives one submit→poll→done round trip through the
// job API. Deduped submissions share an already-active job, so under
// concurrency many round trips collapse onto one queue slot.
func (c *client) anonymizeAsync(body string) error {
	asyncBody := strings.TrimSuffix(body, "}") + `,"async":true}`
	var j service.JobResponse
	if _, err := c.postJSON("/v1/anonymize", asyncBody, &j); err != nil {
		return err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		switch j.State {
		case "done":
			return nil
		case "failed":
			return fmt.Errorf("job %s failed: %s", j.Job, j.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after 2m", j.Job, j.State)
		}
		time.Sleep(5 * time.Millisecond)
		if err := c.getJSON("/v1/jobs/"+j.Job, &j); err != nil {
			return err
		}
	}
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "serve base URL")
	concurrency := flag.Int("concurrency", 8, "closed-loop worker count")
	duration := flag.Duration("duration", 10*time.Second, "measurement window")
	n := cli.N(2000, "dataset size to ingest")
	seed := cli.Seed()
	mixSpec := flag.String("mix", "anonymize:1,attack:4,risk:2", "scenario mix as name:weight[,name:weight...]")
	modelsSpec := flag.String("models", "distinct,bt", "models to warm and cycle (comma-separated)")
	schemaPath := cli.Schema("JSON dataset spec to register and mix into the workload")
	asyncMode := flag.Bool("async", false, "submit anonymize requests as async jobs and poll to completion")
	sweepMode := flag.Bool("sweep", false, "send the whole b' grid per attack/risk request (bprimes sweep form)")
	inferenceSpec := flag.String("inference", "", "comma-separated inference methods to mix into attack/risk requests (omega|exact|adaptive; empty = server default)")
	flag.Parse()

	mix, err := parseMix(*mixSpec)
	if err != nil {
		cli.Fatal("loadgen", err)
	}
	models := strings.Split(*modelsSpec, ",")
	inferences, err := parseInferences(*inferenceSpec)
	if err != nil {
		cli.Fatal("loadgen", err)
	}

	c := &client{
		base: strings.TrimRight(*addr, "/"),
		http: &http.Client{
			Timeout:   5 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: *concurrency},
		},
	}

	// Ingest the dataset (content-addressed: reruns reuse it).
	ingest := func(schemaRef string) service.DatasetResponse {
		body := fmt.Sprintf(`{"n":%d,"seed":%d}`, *n, *seed)
		if schemaRef != "" {
			body = fmt.Sprintf(`{"n":%d,"seed":%d,"schema":%q}`, *n, *seed, schemaRef)
		}
		var ds service.DatasetResponse
		start := time.Now()
		if _, err := c.postJSON("/v1/datasets", body, &ds); err != nil {
			cli.Fatal("loadgen", fmt.Errorf("ingesting dataset: %w", err))
		}
		fmt.Printf("dataset %s (schema %s): %d records (cached=%v, %.2fs)\n",
			ds.ID, ds.Schema, ds.Records, ds.Cached, time.Since(start).Seconds())
		return ds
	}
	// Snapshot the server's stage ledger before any of our traffic, so
	// the post-run report can print the deltas this run caused — which
	// pipeline stages ran, how often, and where the time went.
	stagesBefore := fetchSnapshot(c).Stages

	datasets := []service.DatasetResponse{ingest("")}

	// -schema: register the spec and ingest a second dataset under it,
	// so the steady-state mix carries multi-schema traffic and the
	// release store keys Adult and non-Adult artifacts apart.
	if *schemaPath != "" {
		doc, err := os.ReadFile(*schemaPath)
		if err != nil {
			cli.Fatal("loadgen", err)
		}
		var reg service.SchemaRegisterResponse
		if _, err := c.postJSON("/v1/schemas", string(doc), &reg); err != nil {
			cli.Fatal("loadgen", fmt.Errorf("registering schema: %w", err))
		}
		fmt.Printf("schema %s registered as %s (existed=%v)\n", reg.Name, reg.ID, reg.Existed)
		datasets = append(datasets, ingest(reg.ID))
	}

	// Warm one release per (dataset, model, para): these are the keys
	// the anonymize scenario cycles through, so steady-state anonymize
	// traffic is served from the release store.
	paras := core.Table5()[:2]
	type warmRelease struct{ body, id string }
	var releases []warmRelease
	for _, ds := range datasets {
		for _, m := range models {
			for _, p := range paras {
				body := fmt.Sprintf(`{"dataset":%q,"model":%q,"k":%d,"l":%d,"t":%s,"b":%s}`,
					ds.ID, strings.TrimSpace(m), p.K, p.L,
					strconv.FormatFloat(p.T, 'g', -1, 64), strconv.FormatFloat(p.B, 'g', -1, 64))
				var resp service.AnonymizeResponse
				t0 := time.Now()
				if _, err := c.postJSON("/v1/anonymize", body, &resp); err != nil {
					cli.Fatal("loadgen", fmt.Errorf("warming %s k=%d on %s: %w", m, p.K, ds.ID, err))
				}
				fmt.Printf("warmed %s (%s %s k=%d: %d groups, %.2fs, cached=%v)\n",
					resp.Release, ds.ID, strings.TrimSpace(m), p.K, resp.Groups, time.Since(t0).Seconds(), resp.Cached)
				releases = append(releases, warmRelease{body: body, id: resp.Release})
			}
		}
	}

	bprimes := []float64{0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}
	// -sweep: every attack/risk request carries the whole grid in the
	// bprimes form, so one request amortizes len(bprimes) evaluations
	// over a single inference dispatch (the server's sweeps ledger
	// reports the achieved points/request).
	sweepBody := func(rel, inf string) string {
		parts := make([]string, len(bprimes))
		for i, bp := range bprimes {
			parts[i] = strconv.FormatFloat(bp, 'g', -1, 64)
		}
		return fmt.Sprintf(`{"release":%q,"bprimes":[%s]%s}`, rel, strings.Join(parts, ","), inferenceField(inf))
	}
	deadline := time.Now().Add(*duration)
	samplesPerWorker := make([][]sample, *concurrency)
	fmt.Printf("running %d workers for %s (mix %s)\n", *concurrency, *duration, *mixSpec)
	measureStart := time.Now()
	parallel.For(*concurrency, *concurrency, func(w int) {
		rng := rand.New(rand.NewSource(*seed*1_000_003 + int64(w)))
		var out []sample
		for time.Now().Before(deadline) {
			op := pick(rng, mix)
			rel := releases[rng.Intn(len(releases))]
			label := op
			var err error
			t0 := time.Now()
			switch op {
			case "anonymize":
				if *asyncMode {
					err = c.anonymizeAsync(rel.body)
				} else {
					_, err = c.postJSON("/v1/anonymize", rel.body, nil)
				}
			case "attack", "risk":
				// Draw a method override per request so the mix drives
				// the server's method-keyed attack caches; the sample
				// label carries it for per-method latency rows.
				inf := ""
				if len(inferences) > 0 {
					inf = inferences[rng.Intn(len(inferences))]
				}
				if inf != "" {
					label = op + "(" + inf + ")"
				}
				if *sweepMode {
					_, err = c.postJSON("/v1/"+op, sweepBody(rel.id, inf), nil)
				} else {
					bp := strconv.FormatFloat(bprimes[rng.Intn(len(bprimes))], 'g', -1, 64)
					_, err = c.postJSON("/v1/"+op,
						fmt.Sprintf(`{"release":%q,"bprime":%s%s}`, rel.id, bp, inferenceField(inf)), nil)
				}
			}
			out = append(out, sample{op: label, d: time.Since(t0), ok: err == nil})
		}
		samplesPerWorker[w] = out
	})
	elapsed := time.Since(measureStart)

	report(samplesPerWorker, elapsed)
	printServerMetrics(c)
	after := fetchSnapshot(c)
	printStageDeltas(stagesBefore, after.Stages, after.CostModel)
}

// parseInferences decodes the -inference list; "omega" canonicalizes
// to the empty no-override form, so mixing "omega,adaptive" alternates
// default-keyed and adaptive-keyed traffic.
func parseInferences(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(spec, ",") {
		m := strings.TrimSpace(part)
		switch m {
		case "omega":
			m = ""
		case "", "exact", "adaptive":
		default:
			return nil, fmt.Errorf("unknown inference %q (want omega|exact|adaptive)", part)
		}
		out = append(out, m)
	}
	return out, nil
}

// inferenceField renders the optional request-body override.
func inferenceField(inf string) string {
	if inf == "" {
		return ""
	}
	return fmt.Sprintf(`,"inference":%q`, inf)
}

// parseMix decodes "name:weight,..." into scenarios.
func parseMix(spec string) ([]scenario, error) {
	var mix []scenario
	for _, part := range strings.Split(spec, ",") {
		name, weightStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want name:weight)", part)
		}
		switch name {
		case "anonymize", "attack", "risk":
		default:
			return nil, fmt.Errorf("unknown scenario %q (want anonymize|attack|risk)", name)
		}
		w, err := strconv.Atoi(weightStr)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight in %q", part)
		}
		mix = append(mix, scenario{name: name, weight: w})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return mix, nil
}

// pick draws a scenario proportionally to its weight.
func pick(rng *rand.Rand, mix []scenario) string {
	total := 0
	for _, s := range mix {
		total += s.weight
	}
	r := rng.Intn(total)
	for _, s := range mix {
		r -= s.weight
		if r < 0 {
			return s.name
		}
	}
	return mix[len(mix)-1].name
}

// report aggregates the samples into a per-scenario latency table.
func report(perWorker [][]sample, elapsed time.Duration) {
	byOp := map[string][]time.Duration{}
	errs := map[string]int{}
	total := 0
	for _, samples := range perWorker {
		for _, s := range samples {
			total++
			if !s.ok {
				errs[s.op]++
				continue
			}
			byOp[s.op] = append(byOp[s.op], s.d)
		}
	}
	fmt.Printf("\n%d requests in %.2fs (%.1f req/s overall)\n", total, elapsed.Seconds(), float64(total)/elapsed.Seconds())
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tcount\terrors\treq/s\tp50(ms)\tp90(ms)\tp99(ms)\tmax(ms)")
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	for op := range errs {
		if _, ok := byOp[op]; !ok {
			ops = append(ops, op)
		}
	}
	sort.Strings(ops)
	for _, op := range ops {
		ds := byOp[op]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		q := func(p float64) float64 {
			if len(ds) == 0 {
				return 0
			}
			return float64(ds[int(p*float64(len(ds)-1))]) / float64(time.Millisecond)
		}
		var max float64
		if len(ds) > 0 {
			max = float64(ds[len(ds)-1]) / float64(time.Millisecond)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			op, len(ds), errs[op], float64(len(ds))/elapsed.Seconds(), q(0.50), q(0.90), q(0.99), max)
	}
	tw.Flush()
}

// printServerMetrics fetches and summarizes the server-side counters.
func printServerMetrics(c *client) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: fetching /metrics: %v\n", err)
		return
	}
	defer resp.Body.Close()
	var snap service.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: decoding /metrics: %v\n", err)
		return
	}
	fmt.Printf("\nserver: %d requests, %d errors, pipeline runs %d, dataset builds %d\n",
		snap.Requests, snap.Errors, snap.PipelineRuns, snap.DatasetBuilds)
	fmt.Printf("release store: %d hits, %d shared, %d misses, %d evictions, %d resident\n",
		snap.Store.Hits, snap.Store.Shared, snap.Store.Misses, snap.Store.Evictions, snap.Store.Releases)
	if snap.Sweeps.Requests > 0 {
		fmt.Printf("sweeps: %d requests, %d points (%.1f points/request amortized)\n",
			snap.Sweeps.Requests, snap.Sweeps.Points,
			float64(snap.Sweeps.Points)/float64(snap.Sweeps.Requests))
	}
	if snap.Jobs.Submitted+snap.Jobs.Deduped > 0 {
		fmt.Printf("jobs: %d submitted, %d deduped, %d done, %d failed, %d pending\n",
			snap.Jobs.Submitted, snap.Jobs.Deduped, snap.Jobs.Done, snap.Jobs.Failed, snap.Jobs.Pending)
	}
	if snap.Persist.Writes+snap.Persist.ReleaseLoads+snap.Persist.DatasetLoads+snap.Persist.Errors > 0 {
		fmt.Printf("persist: %d writes, %d release loads, %d dataset loads, %d errors\n",
			snap.Persist.Writes, snap.Persist.ReleaseLoads, snap.Persist.DatasetLoads, snap.Persist.Errors)
	}
	eps := make([]string, 0, len(snap.Endpoints))
	for ep := range snap.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "endpoint\tcount\terrors\tp50(ms)\tp99(ms)")
	for _, ep := range eps {
		st := snap.Endpoints[ep]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\n", ep, st.Count, st.Errors, st.P50Milli, st.P99Milli)
	}
	tw.Flush()
}

// fetchSnapshot grabs the server's /metrics snapshot (stage ledger and
// cost model included). A fetch failure (or a server without tracing)
// degrades to an empty snapshot rather than aborting the run.
func fetchSnapshot(c *client) service.Snapshot {
	var snap service.Snapshot
	if err := c.getJSON("/metrics", &snap); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: fetching /metrics snapshot: %v\n", err)
		return service.Snapshot{}
	}
	return snap
}

// bucketDelta subtracts the before-run histogram from the after-run
// one, returning only bins this run populated (ascending le order,
// which StageStats already guarantees).
func bucketDelta(before, after []obs.HistBucket) []obs.HistBucket {
	prev := map[int64]int64{}
	for _, b := range before {
		prev[b.LeMicros] = b.Count
	}
	var out []obs.HistBucket
	for _, b := range after {
		if c := b.Count - prev[b.LeMicros]; c > 0 {
			out = append(out, obs.HistBucket{LeMicros: b.LeMicros, Count: c})
		}
	}
	return out
}

// bucketQuantile estimates the q-quantile of a log₂-bucketed delta
// histogram in milliseconds. The estimator is ceil nearest-rank over
// buckets, reporting the containing bucket's geometric midpoint
// (le/√2): the multiplicative center of a [le/2, le) bin, so the
// estimate's relative error is bounded by the bucket ratio (√2) rather
// than depending on where samples sit in the bin.
func bucketQuantile(buckets []obs.HistBucket, q float64) float64 {
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range buckets {
		cum += b.Count
		if cum >= rank {
			return float64(b.LeMicros) / math.Sqrt2 / 1000
		}
	}
	return float64(buckets[len(buckets)-1].LeMicros) / math.Sqrt2 / 1000
}

// printStageDeltas reports what this run added to the server's stage
// ledger: per-stage pass counts, total seconds, mean duration, and
// bucket-estimated p50/p99 — the attribution of the run's wall time to
// pipeline stages. When the server exposes a fitted cost model, the
// fiterr% column carries each stage's in-sample median absolute
// relative error: how far the calibrated predictor is from the
// durations actually observed.
func printStageDeltas(before, after map[string]obs.StageStats, cost map[string]costmodel.Fit) {
	names := make([]string, 0, len(after))
	for name := range after {
		names = append(names, name)
	}
	sort.Strings(names)
	printed := false
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, name := range names {
		d := after[name]
		if b, ok := before[name]; ok {
			d.Count -= b.Count
			d.TotalSeconds -= b.TotalSeconds
			d.Buckets = bucketDelta(b.Buckets, d.Buckets)
		}
		if d.Count <= 0 {
			continue
		}
		if !printed {
			fmt.Println("\nstage deltas (this run):")
			fmt.Fprintln(tw, "stage\tcount\ttotal(s)\tmean(ms)\tp50(ms)\tp99(ms)\tfiterr%")
			printed = true
		}
		fitErr := "-"
		if fit, ok := cost[name]; ok && fit.Samples > 0 {
			fitErr = fmt.Sprintf("%.1f", fit.MedAbsRelErr*100)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%s\n",
			name, d.Count, d.TotalSeconds, d.TotalSeconds/float64(d.Count)*1000,
			bucketQuantile(d.Buckets, 0.50), bucketQuantile(d.Buckets, 0.99), fitErr)
	}
	if printed {
		tw.Flush()
	}
}
