package kernel

import (
	"reflect"
	"testing"

	"repro/internal/adult"
	"repro/internal/prob"
)

// TestProfilePriorsDeterministicAcrossWorkers checks prior estimation
// is bit-identical at any pool size — each profile's Nadaraya–Watson
// sum is self-contained, so no float reassociation can occur.
func TestProfilePriorsDeterministicAcrossWorkers(t *testing.T) {
	tab := adult.Generate(300, 11)
	b := UniformBandwidth(tab.Schema.D(), 0.3)
	mk := func(workers int) *Estimator {
		e, err := NewEstimator(tab, adult.Hierarchies(), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Workers = workers
		return e
	}
	want, err := mk(-1).ProfilePriors(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		got, err := mk(workers).ProfilePriors(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: profile priors differ from sequential", workers)
		}
	}
}

// TestProfilePriorsBatchDeterministic checks a sweep is bit-identical
// to independent single-bandwidth passes on a sequential estimator, at
// any pool size, over a grid reaching into the sparse regime.
func TestProfilePriorsBatchDeterministic(t *testing.T) {
	tab := adult.Generate(300, 11)
	d := tab.Schema.D()
	var bvecs [][]float64
	for _, bw := range []float64{0.05, 0.1, 0.2, 0.3, 0.45, 0.7} {
		bvecs = append(bvecs, UniformBandwidth(d, bw))
	}
	seq, err := NewEstimator(tab, adult.Hierarchies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seq.Workers = -1
	want := make([][]prob.Dist, len(bvecs))
	for k, b := range bvecs {
		if want[k], err = seq.Priors(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{-1, 2, 0} {
		e, err := NewEstimator(tab, adult.Hierarchies(), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Workers = workers
		got, err := e.PriorsBatch(bvecs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(bvecs) {
			t.Fatalf("workers=%d: %d results for %d bandwidths", workers, len(got), len(bvecs))
		}
		for k := range bvecs {
			for ri := range got[k] {
				for si, v := range got[k][ri] {
					if v != want[k][ri][si] {
						t.Fatalf("workers=%d bandwidth %d record %d component %d: batch %v != single %v",
							workers, k, ri, si, v, want[k][ri][si])
					}
				}
			}
		}
	}
}
