package kernel

import (
	"testing"

	"repro/internal/adult"
)

// TestLaneBlockTailBoundary pins the pass where a candidate list splits
// into full lane8 blocks and a scalar tail: every profile's prior must
// match the reference loop bit for bit, and the grid must produce
// lists shorter than one block, exact multiples of eight, and every
// tail length 1..7 behind at least one full block.
func TestLaneBlockTailBoundary(t *testing.T) {
	tab := adult.Generate(300, 3)
	grid := []float64{0.05, 0.1, 0.2, 0.3, 0.5}
	short, multiple := false, false
	var tails [8]bool
	for _, workers := range []int{-1, 0} {
		e, err := NewEstimator(tab, adult.Hierarchies(), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Workers = workers
		for _, bw := range grid {
			b := UniformBandwidth(tab.Schema.D(), bw)
			cands := e.buildCands(e.buildFlat(b).w)
			for p := 0; p < e.packed.N; p++ {
				switch l := len(cands.bestList(e.packed, p)); {
				case l < 8:
					short = true
				case l%8 == 0:
					multiple = true
				default:
					tails[l%8] = true
				}
			}
			want := referencePriors(e, b)
			got, err := e.ProfilePriors(b)
			if err != nil {
				t.Fatal(err)
			}
			for pi := range got {
				for si, v := range got[pi] {
					if v != want[pi][si] {
						t.Fatalf("b=%g workers=%d profile %d component %d: lane pass %v != reference %v",
							bw, workers, pi, si, v, want[pi][si])
					}
				}
			}
		}
	}
	if !short {
		t.Error("no candidate list shorter than one lane block")
	}
	if !multiple {
		t.Error("no candidate list that is an exact multiple of eight")
	}
	for r := 1; r < 8; r++ {
		if !tails[r] {
			t.Errorf("no candidate list of length 8k+%d (k ≥ 1)", r)
		}
	}
}
