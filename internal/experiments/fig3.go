package experiments

import (
	"context"

	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/parallel"
)

// Fig3a reproduces Figure 3(a): the continuity of the worst-case
// disclosure risk. (B,t)-private tables are generated for b swept over
// [0.2, 0.5]; each table's worst-case risk is evaluated against
// adversaries Adv(b') for b' ∈ BPrimes. The paper's claim: the curves
// move continuously in b — small parameter changes cannot blow up the
// risk — which justifies protecting with a finite set of well-chosen
// B values.
func (r *Runner) Fig3a() (*Report, error) {
	base := core.Table5()[0]
	rep := &Report{
		ID:     "fig3a",
		Title:  "Continuity of worst-case disclosure risk, varied table b",
		Header: []string{"b"},
		Notes:  "cells: worst-case disclosure risk; expected shape: continuous in b, no jumps",
	}
	for _, bp := range r.Cfg.BPrimes {
		rep.Header = append(rep.Header, "b'="+fmtF(bp))
	}
	var sweep []float64
	for b := 0.2; b <= 0.5+1e-9; b += r.Cfg.Fig3aStep {
		sweep = append(sweep, b)
	}
	// Every sweep point anonymizes its own table, so this is the
	// suite's widest fan-out: one release per point, all independent.
	// Each point's b' curve comes from one WorstCaseRiskSweep — one
	// inference dispatch per release instead of one per b'.
	bvecs := r.bprimeVecs()
	rows, err := parallel.MapErr(r.workers(), len(sweep), func(i int) ([]string, error) {
		p := base
		p.B = sweep[i]
		cells, err := r.cells(core.BTPrivacy, p, len(bvecs), func(res *anonymize.Result) ([]string, error) {
			risks, err := r.Engine.WorstCaseRiskSweep(context.Background(), nil, res, bvecs)
			if err != nil {
				return nil, err
			}
			out := make([]string, len(risks))
			for i, risk := range risks {
				out[i] = fmtF(risk)
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		return append([]string{fmtF(sweep[i])}, cells...), nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return noteUnsat(rep), nil
}

// Fig3b reproduces Figure 3(b): risk continuity over a two-component
// bandwidth vector B = (b1,b1,b1,b2,b2,b2) — the adversary knows the
// first three attributes at level b1 and the last three at level b2.
// Tables are (B,t)-anonymized per grid point and attacked by the fixed
// adversary Adv(b' = 0.3).
func (r *Runner) Fig3b() (*Report, error) {
	base := core.Table5()[0]
	const bPrime = 0.3
	bvals := r.Cfg.BPrimes
	rep := &Report{
		ID:     "fig3b",
		Title:  "Continuity of worst-case disclosure risk over (b1,b2) grid (b'=0.3)",
		Header: []string{"b1\\b2"},
		Notes:  "cells: worst-case disclosure risk; expected shape: continuous surface",
	}
	for _, b2 := range bvals {
		rep.Header = append(rep.Header, fmtF(b2))
	}
	adv := kernel.UniformBandwidth(r.Table.Schema.D(), bPrime)
	d := r.Table.Schema.D()
	// Fan out over grid cells — each (b1,b2) point anonymizes its own
	// table — and reassemble the rows in grid order afterwards.
	n := len(bvals)
	cells, err := parallel.MapErr(r.workers(), n*n, func(ci int) (string, error) {
		b1, b2 := bvals[ci/n], bvals[ci%n]
		bvec := make([]float64, d)
		for i := range bvec {
			if i < d/2 {
				bvec[i] = b1
			} else {
				bvec[i] = b2
			}
		}
		p := base
		p.BVec = bvec
		p.B = 0
		cell, err := r.cells(core.BTPrivacy, p, 1, func(res *anonymize.Result) ([]string, error) {
			risks, err := r.Engine.WorstCaseRiskSweep(context.Background(), nil, res, [][]float64{adv})
			if err != nil {
				return nil, err
			}
			return []string{fmtF(risks[0])}, nil
		})
		if err != nil {
			return "", err
		}
		return cell[0], nil
	})
	if err != nil {
		return nil, err
	}
	for i, b1 := range bvals {
		row := append([]string{fmtF(b1)}, cells[i*n:(i+1)*n]...)
		rep.Rows = append(rep.Rows, row)
	}
	return noteUnsat(rep), nil
}
