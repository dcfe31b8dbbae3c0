package experiments

import (
	"math"
	"math/rand"

	"repro/internal/inference"
	"repro/internal/privacy"
	"repro/internal/prob"
)

// Fig2 reproduces Figure 2: the accuracy of the Ω-estimate. For each
// group size N and adversary bandwidth b, it samples Trials random
// groups of N tuples, computes both the exact posterior and the
// Ω-estimate, and reports the aggregate distance error
//
//	ρ = (1/N) Σ_j |D[P_exa, P_pri] − D[P_ome, P_pri]|
//
// averaged over trials. The paper finds ρ within 0.1 everywhere.
//
// Fig2 stays sequential: all cells draw from one seeded rng stream,
// so fanning points out would change which groups each trial samples.
func (r *Runner) Fig2() (*Report, error) {
	rep := &Report{
		ID:     "fig2",
		Title:  "Accuracy of the Omega-estimate (aggregate distance error)",
		Header: []string{"N"},
		Notes:  "expected shape: error below ~0.1 for all N and b",
	}
	for _, b := range r.Cfg.BPrimes {
		rep.Header = append(rep.Header, "b="+fmtF(b))
	}
	rng := rand.New(rand.NewSource(r.Cfg.Seed + 2))
	for _, n := range r.Cfg.GroupSizes {
		row := []string{fmtI(n)}
		for _, b := range r.Cfg.BPrimes {
			priors, err := r.Engine.UniformPriors(b)
			if err != nil {
				return nil, err
			}
			total := 0.0
			for trial := 0; trial < r.Cfg.Trials; trial++ {
				rows := rng.Perm(r.Table.N())[:n]
				gp := make([]prob.Dist, n)
				for i, ri := range rows {
					gp[i] = priors[ri]
				}
				counts := r.Table.SensitiveCounts(rows)
				exact, omega, same := make([]float64, n), make([]float64, n), make([]int, n)
				if _, err := privacy.ClassGains(inference.Exact{}, r.Engine.Measure, gp, counts, exact, same, math.Inf(-1)); err != nil {
					return nil, err
				}
				if _, err := privacy.ClassGains(inference.Omega{}, r.Engine.Measure, gp, counts, omega, same, math.Inf(-1)); err != nil {
					return nil, err
				}
				rho := 0.0
				for i := range rows {
					rho += math.Abs(exact[i] - omega[i])
				}
				total += rho / float64(n)
			}
			row = append(row, fmtF(total/float64(r.Cfg.Trials)))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
