package experiments

import (
	"math/rand"

	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/utility"
)

// Workload defaults for Figure 6: the paper varies one knob while
// holding the other at a mid-grid value.
const (
	fig6FixedSel = 0.07
	fig6FixedQD  = 4
)

// Fig6a reproduces Figure 6(a): average relative error of aggregate
// COUNT queries versus query dimension qd ∈ {2..6} under para1.
// Expected shape: error decreases as qd grows and (B,t) answers as
// accurately as the baselines.
func (r *Runner) Fig6a() (*Report, error) {
	rep := &Report{
		ID:     "fig6a",
		Title:  "Aggregate query answering error, varied qd (sel=0.07)",
		Header: []string{"qd", "distinct-l-diversity", "probabilistic-l-diversity", "t-closeness", "(B,t)-privacy"},
		Notes:  "cells: average relative error (%); expected shape: decreasing in qd",
	}
	qds := []int{2, 3, 4, 5, 6}
	// Each point owns its seeded Rng, so rows are independent and
	// identical to the sequential run.
	return r.modelRows(rep, r.workers(), len(qds),
		func(i int) (string, core.Params) { return fmtI(qds[i]), core.Table5()[0] },
		func(i int, _ core.Model, _ core.Params, res *anonymize.Result) (string, error) {
			w := &utility.Workload{
				QD:      qds[i],
				Sel:     fig6FixedSel,
				Queries: r.Cfg.Queries,
				Rng:     rand.New(rand.NewSource(r.Cfg.Seed + int64(qds[i]))),
			}
			return fmtF(100 * w.RelativeError(res)), nil
		})
}

// Fig6b reproduces Figure 6(b): average relative error versus query
// selectivity sel ∈ {0.03, 0.05, 0.07, 0.1, 0.12} under para1.
// Expected shape: error decreases as selectivity grows.
func (r *Runner) Fig6b() (*Report, error) {
	rep := &Report{
		ID:     "fig6b",
		Title:  "Aggregate query answering error, varied sel (qd=4)",
		Header: []string{"sel", "distinct-l-diversity", "probabilistic-l-diversity", "t-closeness", "(B,t)-privacy"},
		Notes:  "cells: average relative error (%); expected shape: decreasing in sel",
	}
	sels := []float64{0.03, 0.05, 0.07, 0.1, 0.12}
	return r.modelRows(rep, r.workers(), len(sels),
		func(i int) (string, core.Params) { return fmtF(sels[i]), core.Table5()[0] },
		func(i int, _ core.Model, _ core.Params, res *anonymize.Result) (string, error) {
			w := &utility.Workload{
				QD:      fig6FixedQD,
				Sel:     sels[i],
				Queries: r.Cfg.Queries,
				Rng:     rand.New(rand.NewSource(r.Cfg.Seed + int64(1000+i))),
			}
			return fmtF(100 * w.RelativeError(res)), nil
		})
}
