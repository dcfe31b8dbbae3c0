// Package experiments regenerates every figure of the paper's
// evaluation (§V) as a text table with the same axes and series. Scale
// is configurable: DefaultConfig runs laptop-quick subsets, and
// PaperConfig matches the paper's ~30K-tuple Adult workload and full
// parameter grids. The reproduced artifact is the *shape* of each
// figure — orderings, trends, crossovers — not the authors' absolute
// numbers, which depended on their Java implementation and hardware.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/adult"
	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/privacy"
)

// Config scales and seeds the experiment suite.
type Config struct {
	// N is the table size (paper: ≈30K valid Adult tuples).
	N int
	// Seed drives the synthetic data generator and query sampling.
	Seed int64
	// Workers bounds the pool used for the engine's hot paths and for
	// running independent parameter points of each figure concurrently
	// (0 = all cores, negative = sequential). Figure outputs are
	// identical at any setting; only the timing figures (Fig4a/4b) are
	// kept sequential, since wall-clock measurements under contention
	// would not be comparable. The bound is per stage, not global:
	// figure-level fan-out and the engine's per-class pool each use W
	// workers, so peak CPU use can exceed W when both are active.
	Workers int
	// Trials is the repetition count for Figure 2 (paper: 100).
	Trials int
	// Queries per workload point for Figure 6 (paper-style: 1000).
	Queries int
	// BPrimes are the adversary bandwidths b' (paper: 0.2..0.5).
	BPrimes []float64
	// Fig3aStep is the granularity of the b sweep in Figure 3(a)
	// (paper: 0.025 over [0.2, 0.5]).
	Fig3aStep float64
	// Fig4bSizes are the input sizes of Figure 4(b) (paper: 10K..25K).
	Fig4bSizes []int
	// GroupSizes are Figure 2's N values.
	GroupSizes []int
}

// DefaultConfig is a quick configuration: the same axes as the paper at
// a table size that keeps the full suite within a couple of minutes.
func DefaultConfig() Config {
	return Config{
		N:          2000,
		Seed:       42,
		Trials:     30,
		Queries:    200,
		BPrimes:    []float64{0.2, 0.3, 0.4, 0.5},
		Fig3aStep:  0.05,
		Fig4bSizes: []int{1000, 2000, 3000, 4000},
		GroupSizes: []int{3, 5, 8, 10, 15},
	}
}

// PaperConfig reproduces the paper's scales: a ≈30K-tuple table, 100
// trials, 0.025 bandwidth steps, and 10K–25K kernel-timing inputs.
func PaperConfig() Config {
	c := DefaultConfig()
	c.N = 30000
	c.Trials = 100
	c.Queries = 1000
	c.Fig3aStep = 0.025
	c.Fig4bSizes = []int{10000, 15000, 20000, 25000}
	return c
}

// Report is one regenerated figure: a titled table of rows.
type Report struct {
	ID     string // e.g. "fig1a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(r.Header, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	return b.String()
}

// CSV renders the report as comma-separated values.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Header, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner owns the dataset, the engine, and a cache of anonymized
// tables so figures sharing the same releases do not recompute them.
type Runner struct {
	Cfg    Config
	Table  *dataset.Table
	Engine *core.Engine

	// releases memoizes checked releases by parameter key with
	// singleflight semantics: parameter points running concurrently that
	// need the same release block on one anonymization instead of
	// duplicating it. The key space is finite (figures × parameter sets),
	// so the cache is sized never to evict.
	releases *parallel.Cache[*anonymize.Result]
}

// NewRunner generates the dataset and builds the engine.
func NewRunner(cfg Config) (*Runner, error) {
	table := adult.Generate(cfg.N, cfg.Seed)
	eng, err := core.New(table, adult.Hierarchies(), nil, nil,
		core.WithWorkers(parallel.Resolve(cfg.Workers)))
	if err != nil {
		return nil, err
	}
	return &Runner{Cfg: cfg, Table: table, Engine: eng,
		releases: parallel.NewCache[*anonymize.Result](math.MaxInt)}, nil
}

// workers resolves the configured pool size for figure-level fan-out.
func (r *Runner) workers() int { return parallel.Resolve(r.Cfg.Workers) }

// release returns the Mondrian release of (m ∧ k-anonymity) at p, built
// by the engine's checked path on first use and shared after. Safe for
// concurrent parameter points. A request no release satisfies fails
// with an error wrapping privacy.ErrUnsatisfiable; failures are not
// memoized.
func (r *Runner) release(m core.Model, p core.Params) (*anonymize.Result, error) {
	key := fmt.Sprintf("%s|k=%d,l=%d,t=%g,b=%g|%s", m.Key(), p.K, p.L, p.T, p.B, kernel.BandwidthKey(p.BVec))
	res, _, err := r.releases.Do(key, func() (*anonymize.Result, error) {
		res, _, err := r.Engine.RunAlgorithm("mondrian", m.Key(), p)
		return res, err
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: anonymizing %s: %w", key, err)
	}
	return res, nil
}

// unsat marks a report cell whose model no release satisfies.
const unsat = "unsat"

// cells renders n report cells from model m's release at p: fill
// computes them from the checked release, and a model no release
// satisfies reads unsat in all n. Any other error fails the figure.
func (r *Runner) cells(m core.Model, p core.Params, n int, fill func(*anonymize.Result) ([]string, error)) ([]string, error) {
	res, err := r.release(m, p)
	if errors.Is(err, privacy.ErrUnsatisfiable) {
		out := make([]string, n)
		for i := range out {
			out[i] = unsat
		}
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	return fill(res)
}

// modelRows fills rep with n rows of one cell per model in
// core.AllModels() order: row(i) gives row i's label and parameter set,
// and cell renders row i's value for a model from its checked release
// (see cells). Rows run on w workers.
func (r *Runner) modelRows(rep *Report, w, n int, row func(i int) (string, core.Params),
	cell func(i int, m core.Model, p core.Params, res *anonymize.Result) (string, error)) (*Report, error) {
	rows, err := parallel.MapErr(w, n, func(i int) ([]string, error) {
		label, p := row(i)
		out := []string{label}
		for _, m := range core.AllModels() {
			c, err := r.cells(m, p, 1, func(res *anonymize.Result) ([]string, error) {
				v, err := cell(i, m, p, res)
				return []string{v}, err
			})
			if err != nil {
				return nil, err
			}
			out = append(out, c...)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return noteUnsat(rep), nil
}

// noteUnsat says in rep's note why some of its cells read unsat, if any
// do.
func noteUnsat(rep *Report) *Report {
	for _, row := range rep.Rows {
		if slices.Contains(row, unsat) {
			rep.Notes += "; unsat: no release satisfies the model at these parameters " +
				"(e.g. probabilistic l-diversity needs each sensitive value's table-wide frequency <= 1/l)"
			break
		}
	}
	return rep
}

// All regenerates every figure in paper order.
func (r *Runner) All() ([]*Report, error) {
	type step func() (*Report, error)
	steps := []step{r.Fig1a, r.Fig1b, r.Fig2, r.Fig3a, r.Fig3b, r.Fig4a, r.Fig4b, r.Fig5a, r.Fig5b, r.Fig6a, r.Fig6b}
	var out []*Report
	for _, s := range steps {
		rep, err := s()
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// fmtF renders a float compactly for report cells.
func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }

// fmtI renders an int for report cells.
func fmtI(v int) string { return fmt.Sprintf("%d", v) }
