package experiments

import (
	"context"
	"fmt"

	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/parallel"
)

// para is the i-th row of the paper's Table V: its label and parameter
// set, for figures with one row per parameter set.
func para(i int) (string, core.Params) { return fmt.Sprintf("para%d", i+1), core.Table5()[i] }

// bprimeVecs renders the configured adversary bandwidths b' as the
// uniform bandwidth grid the sweep entry points consume.
func (r *Runner) bprimeVecs() [][]float64 {
	d := r.Table.Schema.D()
	out := make([][]float64, len(r.Cfg.BPrimes))
	for i, bp := range r.Cfg.BPrimes {
		out[i] = kernel.UniformBandwidth(d, bp)
	}
	return out
}

// Fig1a reproduces Figure 1(a): the number of vulnerable tuples in the
// four para1 releases when attacked by adversaries Adv(b') for
// b' ∈ BPrimes. A tuple is vulnerable when its posterior breaks what
// its release's requirement promises (privacy.Judge): max > 1/ℓ for
// the ℓ-diversity models, EMD(prior, posterior) > t for t-closeness,
// knowledge gain > t for (B,t).
//
// Each model's release is attacked by the whole b' grid through one
// AttackSweepWith — one inference dispatch for the whole grid instead
// of one per b' — and models fan out on the pool. Cell values are
// bit-identical to per-b' AttackWith calls (the sweep's determinism
// guarantee).
func (r *Runner) Fig1a() (*Report, error) {
	p := core.Table5()[0]
	rep := &Report{
		ID:     "fig1a",
		Title:  "Probabilistic background knowledge attack, varied b' (para1)",
		Header: []string{"b'", "distinct-l-diversity", "probabilistic-l-diversity", "t-closeness", "(B,t)-privacy"},
		Notes:  "cells: number of vulnerable tuples; expected shape: decreasing in b', (B,t) lowest",
	}
	bvecs := r.bprimeVecs()
	models := core.AllModels()
	cols, err := parallel.MapErr(r.workers(), len(models), func(mi int) ([]string, error) {
		m := models[mi]
		return r.cells(m, p, len(bvecs), func(res *anonymize.Result) ([]string, error) {
			atts, err := r.Engine.AttackSweepWith(context.Background(), nil, res, bvecs, p.T, r.Engine.BreachTest(m, p))
			if err != nil {
				return nil, err
			}
			col := make([]string, len(atts))
			for i, att := range atts {
				col[i] = fmtI(att.Vulnerable)
			}
			return col, nil
		})
	})
	if err != nil {
		return nil, err
	}
	for i, bp := range r.Cfg.BPrimes {
		row := []string{fmtF(bp)}
		for mi := range models {
			row = append(row, cols[mi][i])
		}
		rep.Rows = append(rep.Rows, row)
	}
	return noteUnsat(rep), nil
}

// Fig1b reproduces Figure 1(b): vulnerable tuples, judged as in Fig1a,
// for para1..para4 releases attacked by the fixed adversary Adv(0.3).
func (r *Runner) Fig1b() (*Report, error) {
	const bPrime = 0.3
	rep := &Report{
		ID:     "fig1b",
		Title:  "Probabilistic background knowledge attack, varied privacy parameters (b'=0.3)",
		Header: []string{"param", "distinct-l-diversity", "probabilistic-l-diversity", "t-closeness", "(B,t)-privacy"},
		Notes:  "cells: number of vulnerable tuples; expected shape: (B,t) lowest in every row",
	}
	bvec := kernel.UniformBandwidth(r.Table.Schema.D(), bPrime)
	return r.modelRows(rep, r.workers(), len(core.Table5()), para,
		func(_ int, m core.Model, p core.Params, res *anonymize.Result) (string, error) {
			att, err := r.Engine.AttackWith(context.Background(), nil, res, bvec, p.T, r.Engine.BreachTest(m, p))
			if err != nil {
				return "", err
			}
			return fmtI(att.Vulnerable), nil
		})
}
