package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adult"
	"repro/internal/inference"
	"repro/internal/kernel"
)

// goldenBPrimes are the adversary bandwidths the attack golden covers:
// the sparse regime, the paper's range, and the dense end.
var goldenBPrimes = []float64{0.05, 0.2, 0.3, 0.5}

// goldenAttackDigests computes one line per release: every model ×
// Table5()[:2] under Mondrian, attacked with method m at every
// goldenBPrimes point. The digest is SHA-256 over each report's
// per-record risk bits, its Vulnerable count and its WorstRisk bits, so
// any change to a single float of any attack shows.
func goldenAttackDigests(t *testing.T, label string, n int, m inference.Method) []string {
	t.Helper()
	e, err := New(adult.Generate(n, 42), adult.Hierarchies(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, model := range AllModels() {
		for pi, p := range Table5()[:2] {
			key := fmt.Sprintf("%s n=%d %s mondrian para%d", label, n, model.Key(), pi+1)
			res, _, err := e.RunAlgorithm("mondrian", model.Key(), p)
			if err != nil {
				lines = append(lines, key+": error "+err.Error())
				continue
			}
			h := sha256.New()
			var word [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(word[:], v)
				h.Write(word[:])
			}
			breach := e.BreachTest(model, p)
			for _, bp := range goldenBPrimes {
				bvec := kernel.UniformBandwidth(e.Table.Schema.D(), bp)
				rep, err := e.AttackWith(context.Background(), m, res, bvec, p.T, breach)
				if err != nil {
					t.Fatalf("%s b'=%g: %v", key, bp, err)
				}
				for _, r := range rep.Risks {
					put(math.Float64bits(r))
				}
				put(uint64(rep.Vulnerable))
				put(math.Float64bits(rep.WorstRisk))
			}
			lines = append(lines, fmt.Sprintf("%s: %x", key, h.Sum(nil)))
		}
	}
	return lines
}

// TestAttackGolden pins every attack report to digests committed in
// testdata/attack_golden.txt, so a change to inference, the measure or
// the attack fan-in is compared with earlier builds, not only with
// itself: Ω at n=2000 and the adaptive method (exact below 4096 DP
// states, Ω above) at n=800.
func TestAttackGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "attack_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := append(goldenAttackDigests(t, "omega", 2000, inference.Omega{}),
		goldenAttackDigests(t, "adaptive", 800, inference.Adaptive{MaxStates: 4096})...)
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d digests, golden has %d; computed:\n%s", len(got), len(wantLines), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("digest differs from golden:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
