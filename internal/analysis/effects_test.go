package analysis_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// loadEffectsFixture copies testdata/effects into a throwaway module
// and loads it through the real loader, mirroring analysistest.
func loadEffectsFixture(t *testing.T) *analysis.Package {
	t.Helper()
	tmp := t.TempDir()
	src := filepath.Join("testdata", "effects")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		if err := os.WriteFile(filepath.Join(tmp, e.Name()), b, 0o644); err != nil {
			t.Fatalf("writing fixture: %v", err)
		}
	}
	gomod := "module fixture\n\ngo 1.21\n"
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatalf("writing go.mod: %v", err)
	}
	pkgs, err := analysis.Load(tmp, "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	return pkgs[0]
}

func TestFuncEffects(t *testing.T) {
	pkg := loadEffectsFixture(t)
	ei := pkg.Effects()

	const (
		blocks = analysis.EffectBlocks
		alloc  = analysis.EffectAllocates
		nondet = analysis.EffectNondet
		locks  = analysis.EffectLocks
		spawn  = analysis.EffectGo
	)
	cases := []struct {
		fn   string
		want analysis.Effects
	}{
		// Leaves of the lattice.
		{"pure", analysis.NoEffects},
		{"doesIO", blocks | alloc},
		{"allocates", alloc},
		// Transitive propagation through same-package helpers.
		{"viaHelper", blocks | alloc},
		{"viaTwoHelpers", blocks | alloc},
		// Sound widening: unknown callees and function values get top.
		{"unknownCallee", analysis.AllEffects},
		{"funcValue", analysis.AllEffects},
		// Fixpoint over recursion: an effect on either side of a cycle
		// reaches both, and a pure cycle stays pure.
		{"cycleA", blocks | alloc},
		{"cycleB", blocks | alloc},
		{"pureCycle", analysis.NoEffects},
		{"pureCycleB", analysis.NoEffects},
		// Individual effect classes.
		{"locks", locks},
		{"spawns", spawn},
		{"blocksOnChan", blocks},
		{"nonBlockingSelect", analysis.NoEffects},
		{"readsClock", nondet},
		// Higher-order intrinsics take the closure's effects, not top.
		{"sortsWithClosure", alloc},
		{"sortsWithIO", blocks | alloc},
	}
	// At the fixpoint a function's table entry is the effect of its
	// body, so NodeEffects over each declaration reads the table.
	bodies := map[string]*ast.BlockStmt{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				bodies[fd.Name.Name] = fd.Body
			}
		}
	}
	for _, tc := range cases {
		body, ok := bodies[tc.fn]
		if !ok {
			t.Errorf("%s: no function of that name in fixture package", tc.fn)
			continue
		}
		if got := ei.NodeEffects(body); got != tc.want {
			t.Errorf("effects(%s) = %v, want %v", tc.fn, got, tc.want)
		}
	}
}

func TestEffectsString(t *testing.T) {
	cases := []struct {
		e    analysis.Effects
		want string
	}{
		{analysis.NoEffects, "pure"},
		{analysis.EffectBlocks, "blocks"},
		{analysis.EffectBlocks | analysis.EffectLocks, "blocks|locks"},
		{analysis.AllEffects, "blocks|allocates|nondet|locks|go"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("Effects(%d).String() = %q, want %q", tc.e, got, tc.want)
		}
	}
}
