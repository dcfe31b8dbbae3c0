// Command costcheck is the assertion half of `make cost-smoke`: it
// points at a running serve instance whose cost model a calibration
// run has already populated, and exits nonzero unless
//
//  1. GET /metrics?format=prom serves a well-formed OpenMetrics
//     exposition (content type, sample-line syntax, one trailing
//     # EOF, cumulative le-bucket monotonicity), with endpoint latency
//     as a histogram family carrying a +Inf bucket for every endpoint
//     that counts requests, and
//  2. every stage named by -stages is calibrated: at least
//     -min-samples shaped observations in its window and an in-sample
//     median absolute relative error of at most -max-err.
//
// Usage:
//
//	costcheck [-addr http://127.0.0.1:8080] [-stages priors,mondrian]
//	          [-min-samples 4] [-max-err 0.30]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/service"
)

var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$`)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "serve base URL")
	stagesSpec := flag.String("stages", "priors,mondrian", "stages that must be calibrated (comma-separated)")
	minSamples := flag.Int("min-samples", 4, "minimum shaped observations per required stage")
	maxErr := flag.Float64("max-err", 0.30, "maximum in-sample median absolute relative error")
	flag.Parse()
	base := strings.TrimRight(*addr, "/")

	if err := checkProm(base); err != nil {
		fatal(fmt.Errorf("openmetrics exposition: %w", err))
	}
	fmt.Println("costcheck: /metrics?format=prom parses (syntax, monotone histograms, endpoint latency histograms, # EOF)")

	snap, err := fetchSnapshot(base)
	if err != nil {
		fatal(err)
	}
	for _, stage := range strings.Split(*stagesSpec, ",") {
		stage = strings.TrimSpace(stage)
		fit, ok := snap.CostModel[stage]
		if !ok {
			fatal(fmt.Errorf("stage %s has no cost-model entry (calibration run too small?)", stage))
		}
		if fit.Samples < *minSamples {
			fatal(fmt.Errorf("stage %s has %d calibration samples, want >= %d", stage, fit.Samples, *minSamples))
		}
		if fit.MedAbsRelErr > *maxErr {
			fatal(fmt.Errorf("stage %s fit error %.1f%% exceeds %.1f%% (formula %s, a=%g b=%g r2=%.3f, %d samples)",
				stage, fit.MedAbsRelErr*100, *maxErr*100, fit.Formula, fit.A, fit.B, fit.R2, fit.Samples))
		}
		fmt.Printf("costcheck: %s calibrated: %s, medare %.1f%% over %d samples (r2 %.3f)\n",
			stage, fit.Formula, fit.MedAbsRelErr*100, fit.Samples, fit.R2)
	}
}

// checkProm fetches the OpenMetrics form and validates it line by line.
func checkProm(base string) error {
	resp, err := http.Get(base + "/metrics?format=prom")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		return fmt.Errorf("content type %q is not openmetrics-text", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	body := string(raw)
	if !strings.HasSuffix(body, "# EOF\n") {
		return fmt.Errorf("exposition does not end with # EOF")
	}
	cum := map[string]int64{} // histogram series (sans le) → last cumulative count
	// Endpoint label sets seen on the request counter and on the
	// latency histogram's +Inf bucket: each counted endpoint needs one.
	counted, infBucket := map[string]bool{}, map[string]bool{}
	latencyHist := false
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line == "# TYPE repro_endpoint_latency_seconds histogram" {
			latencyHist = true
		}
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			return fmt.Errorf("line %d malformed: %q", i+1, line)
		}
		if rest, ok := strings.CutPrefix(line, "repro_endpoint_requests_total{"); ok {
			labels, _, _ := strings.Cut(rest, "} ")
			counted[labels] = true
		}
		if rest, ok := strings.CutPrefix(line, "repro_endpoint_latency_seconds_bucket{"); ok {
			labels, _, _ := strings.Cut(rest, "} ")
			if labels, ok := strings.CutSuffix(labels, `,le="+Inf"`); ok {
				infBucket[labels] = true
			}
		}
		name, rest, ok := strings.Cut(line, "_bucket{")
		if !ok {
			continue
		}
		labels, valStr, ok := strings.Cut(rest, "} ")
		if !ok {
			return fmt.Errorf("line %d: unterminated bucket labels: %q", i+1, line)
		}
		v, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			return fmt.Errorf("line %d: bucket count %q: %w", i+1, valStr, err)
		}
		var kept []string
		for _, l := range strings.Split(labels, ",") {
			if !strings.HasPrefix(l, "le=") {
				kept = append(kept, l)
			}
		}
		key := name + "{" + strings.Join(kept, ",") + "}"
		if v < cum[key] {
			return fmt.Errorf("line %d: histogram %s not cumulative: %d after %d", i+1, key, v, cum[key])
		}
		cum[key] = v
	}
	if len(cum) == 0 {
		return fmt.Errorf("exposition carries no histogram buckets")
	}
	if !latencyHist {
		return fmt.Errorf("repro_endpoint_latency_seconds is not declared a histogram family")
	}
	for labels := range counted {
		if !infBucket[labels] {
			return fmt.Errorf("endpoint {%s} counts requests but has no latency +Inf bucket", labels)
		}
	}
	return nil
}

func fetchSnapshot(base string) (service.Snapshot, error) {
	var snap service.Snapshot
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "costcheck: FAIL:", err)
	os.Exit(1)
}
