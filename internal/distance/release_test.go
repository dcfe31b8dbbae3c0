package distance_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/adult"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/prob"
)

// TestSmoothMatchesReferenceOnReleases pins the engine's measure to the
// dense oracle on the distributions it actually smooths: every distinct
// prior and Ω posterior of n=2000 Adult (B,t) and distinct-ℓ releases
// at b' ∈ {0.2, 0.3, 0.5}. Most of them have a few nonzero components
// out of 14, which is where smoothing only the given mass differs most
// from the dense sum.
func TestSmoothMatchesReferenceOnReleases(t *testing.T) {
	table := adult.Generate(2000, 42)
	e, err := core.New(table, adult.Hierarchies(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := e.Measure.(*distance.SmoothedJS)
	if !ok {
		t.Fatalf("engine measure is %T, want *distance.SmoothedJS", e.Measure)
	}
	w := distance.ReferenceWeights(e.SensMatrix, e.Kernel, core.SmoothingBandwidth)
	seen := make(map[string]bool)
	check := func(p prob.Dist) {
		key := make([]byte, 0, 8*len(p))
		for _, v := range p {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		if seen[string(key)] {
			return
		}
		seen[string(key)] = true
		got, want := s.Smooth(p), distance.ReferenceSmooth(w, p)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("Smooth[%d] %v != reference %v\np=%v", i, got[i], want[i], p)
			}
		}
	}
	for _, model := range []core.Model{core.BTPrivacy, core.DistinctLDiversity} {
		res, _, err := e.RunAlgorithm("mondrian", model.Key(), core.Table5()[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, bp := range []float64{0.2, 0.3, 0.5} {
			priors, err := e.Priors(kernel.UniformBandwidth(table.Schema.D(), bp))
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range res.Groups {
				gp := make([]prob.Dist, g.Size())
				for i, r := range g.Rows {
					gp[i] = priors[r]
				}
				posts := inference.Omega{}.Posteriors(gp, table.SensitiveCounts(g.Rows))
				for i := range gp {
					check(gp[i])
					check(posts[i])
				}
			}
		}
	}
	t.Logf("%d distinct priors and posteriors smoothed bit for bit", len(seen))
}
