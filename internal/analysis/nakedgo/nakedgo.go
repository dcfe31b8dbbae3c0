// Package nakedgo flags raw go statements and hand-rolled
// sync.WaitGroup fan-out. All concurrency outside internal/parallel
// (which the driver exempts) must route through that package's bounded
// pool — parallel.For/MapErr, Limiter.Go, Workers — because those are the
// primitives the bit-identity and race tests cover: they bound fan-out
// by the worker budget and keep fan-in order deterministic. A goroutine
// spawned anywhere else escapes both guarantees.
package nakedgo

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the nakedgo pass.
var Analyzer = &analysis.Analyzer{
	Name: "nakedgo",
	Doc:  "flags raw go statements and sync.WaitGroup use outside internal/parallel",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw go statement — spawn through internal/parallel (For/MapErr, Limiter.Go, Workers) so fan-out stays bounded and fan-in deterministic")
			case *ast.SelectorExpr:
				tn, ok := pass.Info.Uses[n.Sel].(*types.TypeName)
				if ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "WaitGroup" {
					pass.Reportf(n.Pos(), "hand-rolled sync.WaitGroup fan-out — use internal/parallel's Workers or Limiter.Go, which own the WaitGroup and return a wait func")
				}
			}
			return true
		})
	}
	return nil
}
