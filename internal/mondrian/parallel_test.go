package mondrian

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/privacy"
)

// TestParallelPartitionMatchesSequential checks the tentpole contract
// for Mondrian: concurrent subtree descent yields the same groups in
// the same order as the sequential recursion, at several pool sizes
// and table shapes.
func TestParallelPartitionMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{50, 500, 2000} {
		tab := randomTable(rng, n)
		req := privacy.And{Parts: []privacy.Requirement{
			privacy.KAnonymity{K: 4},
			privacy.DistinctLDiversity{L: 2, Table: tab},
		}}
		seq := (&Partitioner{Table: tab, Req: req, Workers: -1}).Anonymize()
		for _, workers := range []int{2, 8, 64} {
			par := (&Partitioner{Table: tab, Req: req, Workers: workers}).Anonymize()
			if len(par.Groups) != len(seq.Groups) {
				t.Fatalf("n=%d workers=%d: %d groups, sequential has %d",
					n, workers, len(par.Groups), len(seq.Groups))
			}
			for gi := range seq.Groups {
				if !reflect.DeepEqual(par.Groups[gi], seq.Groups[gi]) {
					t.Fatalf("n=%d workers=%d: group %d differs\nseq: %+v\npar: %+v",
						n, workers, gi, seq.Groups[gi], par.Groups[gi])
				}
			}
			if err := par.Validate(); err != nil {
				t.Fatalf("n=%d workers=%d: invalid partition: %v", n, workers, err)
			}
		}
	}
}
