package experiments

import (
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
		tr, err := r.anonymized(core.BTPrivacy, p)
		if err != nil {
			return nil, err
		}
		risks, err := r.Engine.WorstCaseRiskSweep(tr.res, bvecs)
		if err != nil {
			return nil, err
		}
		row := []string{fmtF(sweep[i])}
		for _, risk := range risks {
			row = append(row, fmtF(risk))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return rep, nil
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
		tr, err := r.anonymized2(core.BTPrivacy, p, "b1="+fmtF(b1)+",b2="+fmtF(b2))
		if err != nil {
			return "", err
		}
		risk, err := r.Engine.WorstCaseRisk(tr.res, adv)
		if err != nil {
			return "", err
		}
		return fmtF(risk), nil
	})
	if err != nil {
		return nil, err
	}
	for i, b1 := range bvals {
		row := append([]string{fmtF(b1)}, cells[i*n:(i+1)*n]...)
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// anonymized2 is anonymized with an explicit extra cache-key suffix,
// for parameter sets that differ in BVec rather than scalar fields.
func (r *Runner) anonymized2(m core.Model, p core.Params, suffix string) (*timedResult, error) {
	key := m.String() + "|" + suffix
	return r.cached(key, func() (*timedResult, error) { return r.anonymizeNow(m, p) })
}
