package experiments

import (
	"time"

	"repro/internal/adult"
	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/kernel"
)

// Fig4a reproduces Figure 4(a): the wall-clock time to compute each of
// the four anonymized tables across para1..para4. As in the paper, the
// (B,t) timing excludes kernel prior estimation (reported separately
// in Figure 4(b)); the expected shape is decreasing time with more
// stringent parameters (Mondrian is top-down: stricter requirements
// prune the recursion earlier) and (B,t) comparable to the rest.
//
// Each cell times a fresh one-at-a-time Anonymize of the requirement
// the checked release was built from, with the requirement (and so the
// (B,t) prior pass) built before the timer starts. The cached releases
// are not timed: earlier figures build them from concurrent parameter
// points, and wall-clock recorded under contention would not be
// comparable across models. A model no release satisfies is not timed
// and reads unsat.
func (r *Runner) Fig4a() (*Report, error) {
	rep := &Report{
		ID:     "fig4a",
		Title:  "Efficiency: anonymization time (seconds)",
		Header: []string{"param", "distinct-l-diversity", "probabilistic-l-diversity", "t-closeness", "(B,t)-privacy"},
		Notes:  "expected shape: decreasing with stricter parameters; (B,t) same order as baselines",
	}
	return r.modelRows(rep, -1, len(core.Table5()), para,
		func(_ int, m core.Model, p core.Params, _ *anonymize.Result) (string, error) {
			req, err := r.Engine.RequirementByName(m.Key(), p)
			if err != nil {
				return "", err
			}
			start := time.Now()
			r.Engine.Anonymize(req)
			return fmtF(time.Since(start).Seconds()), nil
		})
}

// Fig4b reproduces Figure 4(b): the time to compute background
// knowledge with the kernel estimation method, varying the bandwidth b
// and the input size. Fresh tables of each size are generated so the
// measurement covers the full O(profiles²·d) pass.
func (r *Runner) Fig4b() (*Report, error) {
	rep := &Report{
		ID:     "fig4b",
		Title:  "Efficiency: kernel background-knowledge estimation time (seconds)",
		Header: []string{"b"},
		Notes:  "expected shape: grows roughly quadratically with input size",
	}
	for _, n := range r.Cfg.Fig4bSizes {
		rep.Header = append(rep.Header, fmtI(n)+" tuples")
	}
	type sized struct {
		est *kernel.Estimator
		d   int
	}
	insts := make([]sized, len(r.Cfg.Fig4bSizes))
	for i, n := range r.Cfg.Fig4bSizes {
		t := adult.Generate(n, r.Cfg.Seed+int64(100+i))
		est, err := kernel.NewEstimator(t, adult.Hierarchies(), r.Engine.Kernel)
		if err != nil {
			return nil, err
		}
		// The estimator field follows the same worker convention as
		// Config.Workers, so the timing honors the requested pool size.
		est.Workers = r.Cfg.Workers
		insts[i] = sized{est: est, d: t.Schema.D()}
	}
	for _, b := range r.Cfg.BPrimes {
		row := []string{fmtF(b)}
		for _, in := range insts {
			start := time.Now()
			if _, err := in.est.ProfilePriors(kernel.UniformBandwidth(in.d, b)); err != nil {
				return nil, err
			}
			row = append(row, fmtF(time.Since(start).Seconds()))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
