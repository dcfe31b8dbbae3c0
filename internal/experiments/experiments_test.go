package experiments

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
)

// tinyConfig keeps the full suite fast enough for CI.
func tinyConfig() Config {
	return Config{
		N:          300,
		Seed:       1,
		Trials:     3,
		Queries:    30,
		BPrimes:    []float64{0.3, 0.5},
		Fig3aStep:  0.15,
		Fig4bSizes: []int{100, 200},
		GroupSizes: []int{3, 5},
	}
}

func newTestRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAllFiguresRun(t *testing.T) {
	r := newTestRunner(t)
	reports, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"fig1a", "fig1b", "fig2", "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b"}
	if len(reports) != len(wantIDs) {
		t.Fatalf("got %d reports, want %d", len(reports), len(wantIDs))
	}
	for i, rep := range reports {
		if rep.ID != wantIDs[i] {
			t.Errorf("report %d id = %s, want %s", i, rep.ID, wantIDs[i])
		}
		if len(rep.Rows) == 0 {
			t.Errorf("%s: no rows", rep.ID)
		}
		for _, row := range rep.Rows {
			if len(row) != len(rep.Header) {
				t.Errorf("%s: row width %d != header width %d", rep.ID, len(row), len(rep.Header))
			}
		}
	}
}

func TestFig2ErrorWithinPaperBound(t *testing.T) {
	// The paper reports Ω-estimate aggregate distance error within 0.1
	// everywhere (Figure 2); hold the reproduction to a small slack.
	r := newTestRunner(t)
	rep, err := r.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("unparsable cell %q", cell)
			}
			if v > 0.15 {
				t.Errorf("Ω error %g exceeds paper's ~0.1 band (row %s)", v, row[0])
			}
		}
	}
}

func TestFig1aBTColumnLowest(t *testing.T) {
	r := newTestRunner(t)
	rep, err := r.Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		distinct, _ := strconv.Atoi(row[1])
		bt, _ := strconv.Atoi(row[4])
		if bt > distinct {
			t.Errorf("b'=%s: (B,t) vulnerable %d > distinct-l %d", row[0], bt, distinct)
		}
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows:  [][]string{{"1", "2"}},
		Notes: "n",
	}
	s := rep.String()
	for _, want := range []string{"== x: T ==", "a", "2", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	c := rep.CSV()
	if !strings.HasPrefix(c, "a,b\n1,2\n") {
		t.Errorf("CSV = %q", c)
	}
}

func TestConfigs(t *testing.T) {
	d := DefaultConfig()
	p := PaperConfig()
	if p.N <= d.N || p.Trials <= d.Trials {
		t.Error("PaperConfig should scale up DefaultConfig")
	}
	if p.Fig3aStep >= d.Fig3aStep {
		t.Error("PaperConfig should sweep b more finely")
	}
}

// TestUnsatisfiableCellsAreMarked pins the figures to checked releases.
// The table's most common occupation is more frequent than 1/6, so no
// release satisfies para4's probabilistic 6-diversity: its cell reads
// unsat instead of measuring the one-group table Mondrian returns.
// Every other cell still holds a number.
func TestUnsatisfiableCellsAreMarked(t *testing.T) {
	r := newTestRunner(t)
	for _, fig := range []func() (*Report, error){r.Fig1b, r.Fig5a, r.Fig5b} {
		rep, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Rows {
			for ci, cell := range row[1:] {
				wantUnsat := row[0] == "para4" && rep.Header[ci+1] == "probabilistic-l-diversity"
				if wantUnsat {
					if cell != unsat {
						t.Errorf("%s %s %s = %q, want %q", rep.ID, row[0], rep.Header[ci+1], cell, unsat)
					}
					continue
				}
				if _, err := strconv.ParseFloat(cell, 64); err != nil {
					t.Errorf("%s %s %s = %q, want a number", rep.ID, row[0], rep.Header[ci+1], cell)
				}
			}
		}
		if !strings.Contains(rep.Notes, "unsat:") {
			t.Errorf("%s note does not explain unsat: %q", rep.ID, rep.Notes)
		}
	}
	if _, err := r.release(core.DistinctLDiversity, core.Params{K: 1000, L: 50}); !errors.Is(err, privacy.ErrUnsatisfiable) {
		t.Errorf("release(k=1000, l=50) err = %v, want privacy.ErrUnsatisfiable", err)
	}
}
