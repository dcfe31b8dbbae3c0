package experiments

import (
	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/utility"
)

// Fig5a reproduces Figure 5(a): the Discernibility Metric cost of the
// four releases across para1..para4. Expected shape: DM grows with
// stricter parameters and (B,t) stays comparable to the baselines.
func (r *Runner) Fig5a() (*Report, error) {
	return r.utilityFigure("fig5a", "General utility: Discernibility Metric (DM)", utility.Discernibility)
}

// Fig5b reproduces Figure 5(b): the Global Certainty Penalty.
func (r *Runner) Fig5b() (*Report, error) {
	return r.utilityFigure("fig5b", "General utility: Global Certainty Penalty (GCP)", utility.GCP)
}

func (r *Runner) utilityFigure(id, title string, metric func(*anonymize.Result) float64) (*Report, error) {
	rep := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"param", "distinct-l-diversity", "probabilistic-l-diversity", "t-closeness", "(B,t)-privacy"},
		Notes:  "expected shape: cost grows with stricter parameters; (B,t) comparable to baselines",
	}
	return r.modelRows(rep, r.workers(), len(core.Table5()), para,
		func(_ int, _ core.Model, _ core.Params, res *anonymize.Result) (string, error) {
			return fmtF(metric(res)), nil
		})
}
