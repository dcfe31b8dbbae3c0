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

// releasePairs calls visit on every (prior, Ω posterior) pair of the
// n=2000 Adult (B,t) and distinct-ℓ releases at each b′ of bps.
func releasePairs(t *testing.T, bps []float64, visit func(s *distance.SmoothedJS, prior, post prob.Dist)) {
	t.Helper()
	table := adult.Generate(2000, 42)
	e, err := core.New(table, adult.Hierarchies(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := e.Measure.(*distance.SmoothedJS)
	if !ok {
		t.Fatalf("engine measure is %T, want *distance.SmoothedJS", e.Measure)
	}
	for _, model := range []core.Model{core.BTPrivacy, core.DistinctLDiversity} {
		res, _, err := e.RunAlgorithm("mondrian", model.Key(), core.Table5()[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, bp := range bps {
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
					visit(s, gp[i], posts[i])
				}
			}
		}
	}
}

// distKey is a distribution's bits, as a map key.
func distKey(ds ...prob.Dist) string {
	var key []byte
	for _, d := range ds {
		for _, v := range d {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
	}
	return string(key)
}

// TestSmoothMatchesReferenceOnReleases pins the engine's measure to the
// dense oracle on the distributions it actually smooths: every distinct
// prior and Ω posterior of n=2000 Adult (B,t) and distinct-ℓ releases
// at b' ∈ {0.2, 0.3, 0.5}. Most of them have a few nonzero components
// out of 14, which is where smoothing only the given mass differs most
// from the dense sum.
func TestSmoothMatchesReferenceOnReleases(t *testing.T) {
	var w [][]float64
	seen := make(map[string]bool)
	check := func(s *distance.SmoothedJS, p prob.Dist) {
		key := distKey(p)
		if seen[key] {
			return
		}
		seen[key] = true
		got, want := s.Smooth(p), distance.ReferenceSmooth(w, p)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("Smooth[%d] %v != reference %v\np=%v", i, got[i], want[i], p)
			}
		}
	}
	releasePairs(t, []float64{0.2, 0.3, 0.5}, func(s *distance.SmoothedJS, prior, post prob.Dist) {
		if w == nil {
			occ, err := adult.OccupationHierarchy().DistanceMatrix(adult.NewSchema().Sensitive.Values)
			if err != nil {
				t.Fatal(err)
			}
			w = distance.ReferenceWeights(occ, kernel.Epanechnikov{}, core.SmoothingBandwidth)
		}
		check(s, prior)
		check(s, post)
	})
	t.Logf("%d distinct priors and posteriors smoothed bit for bit", len(seen))
}

// TestTiltBoundSoundOnReleases checks the tilted bound against the
// measure on every distinct (prior, Ω posterior) pair of n=2000 Adult
// (B,t) and distinct-ℓ releases at b′ ∈ {0.05, 0.2, 0.3, 0.5, 0.7}: it
// never lies below the computed distance, and its guard never fires on
// distributions the engine builds.
func TestTiltBoundSoundOnReleases(t *testing.T) {
	seen := make(map[string]bool)
	tightest := 0.0
	releasePairs(t, []float64{0.05, 0.2, 0.3, 0.5, 0.7}, func(s *distance.SmoothedJS, prior, post prob.Dist) {
		key := distKey(prior, post)
		if seen[key] {
			return
		}
		seen[key] = true
		d, tb := s.Distance(prior, post), s.TiltBound(prior, post)
		if math.IsInf(tb, 1) {
			t.Fatalf("tilted bound guarded on an engine pair\nprior=%v\npost=%v", prior, post)
		}
		if !(d <= tb) {
			t.Fatalf("distance %v above the tilted bound %v\nprior=%v\npost=%v", d, tb, prior, post)
		}
		tightest = math.Max(tightest, d/tb)
	})
	t.Logf("%d distinct pairs: the distance is at most %.4f of the tilted bound", len(seen), tightest)
}
