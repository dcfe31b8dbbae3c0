package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/adult"
	"repro/internal/core"
	"repro/internal/dataset"
)

// tableN is the row count of every generated table: the Adult-shaped
// size the service's own benchmarks and loadgen use.
const tableN = 2000

// warmGrid is the adversary-bandwidth grid warm reads draw from (the
// loadgen grid); the warm set pre-computes every prior on it.
var warmGrid = []float64{0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}

// coldGrid is the onboarding flow's risk sweep: seven bandwidths none
// of which the flow's anonymize pass (B=0.3) has computed, so the
// server's fused batch pass runs all seven lanes cold.
var coldGrid = []float64{0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.7}

// csrBPrime is the flow's closing single attack: below the kernel's
// 0.08 candidate-density crossover, so it runs the sparse CSR pass.
const csrBPrime = 0.05

// Table seed streams: each kind of table the benchmark generates draws
// from its own stream, so adding flows to one phase never changes the
// tables of another.
const (
	streamWarm   = 1
	streamFlow   = 2
	streamWarmup = 3
	streamProbe  = 4
)

// tableSeed derives the generator seed of table i of a stream from the
// workload seed. The server never sees it: it receives only the CSV.
func tableSeed(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)*1_000_000_007 + int64(i)
}

// warmTables is how many tables the warm set spreads its releases
// over. What a warm read costs depends on the table's group structure,
// which differs between generated tables by up to a fifth; over
// several tables a seed's draw averages out.
const warmTables = 4

// warmTableCSVs renders the warm set's tables of a workload seed.
func warmTableCSVs(seed int64) ([][]byte, error) {
	out := make([][]byte, warmTables)
	for i := range out {
		csv, err := tableCSV(tableSeed(seed, streamWarm, i))
		if err != nil {
			return nil, err
		}
		out[i] = csv
	}
	return out, nil
}

// tableCSV renders the Adult-shaped table of a generator seed as the
// CSV a publisher uploads.
func tableCSV(genSeed int64) ([]byte, error) {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, adult.Generate(tableN, genSeed)); err != nil {
		return nil, fmt.Errorf("rendering table %d: %w", genSeed, err)
	}
	return buf.Bytes(), nil
}

// decodeTable decodes an upload body exactly as the service does.
func decodeTable(csv []byte) (*dataset.Table, error) {
	return dataset.ReadCSV(bytes.NewReader(csv), adult.Specs())
}

// fmtF renders a float the way the request bodies spell it.
func fmtF(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// anonymizeBody is the anonymize request for (dataset, model, p).
func anonymizeBody(ds, model string, p core.Params) []byte {
	return []byte(fmt.Sprintf(`{"dataset":%q,"model":%q,"k":%d,"l":%d,"t":%s,"b":%s}`,
		ds, model, p.K, p.L, fmtF(p.T), fmtF(p.B)))
}

// singleBody is an attack/risk request at one bandwidth.
func singleBody(rel string, bp float64) []byte {
	return []byte(fmt.Sprintf(`{"release":%q,"bprime":%s}`, rel, fmtF(bp)))
}

// sweepBody is an attack/risk request over a bandwidth grid.
func sweepBody(rel string, grid []float64) []byte {
	parts := make([]string, len(grid))
	for i, bp := range grid {
		parts[i] = fmtF(bp)
	}
	return []byte(fmt.Sprintf(`{"release":%q,"bprimes":[%s]}`, rel, strings.Join(parts, ",")))
}

// defaultParams are the service's anonymize defaults (k=3, l=3,
// t=0.25, B=0.3), which the onboarding flow relies on.
var defaultParams = core.Params{K: 3, L: 3, T: 0.25, B: 0.3}
