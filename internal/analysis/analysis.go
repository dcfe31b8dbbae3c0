// Package analysis is the repo's static-analysis substrate: a
// self-contained reimplementation of the golang.org/x/tools/go/analysis
// surface that detlint's analyzers program against — Analyzer, Pass,
// diagnostics — plus the two annotation conventions the suite honors:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//	    suppresses matching diagnostics on the same line and the line
//	    below. The reason is mandatory: a directive without one is
//	    inert, so every suppression in the tree explains itself.
//
//	//detlint:hotpath
//	    opts a function (in its doc comment) or a whole file (in a
//	    comment above the package clause) into the hotalloc analyzer's
//	    allocation discipline.
//
// The tree builds offline with no third-party modules, so the x/tools
// multichecker and vet driver are not available; cmd/detlint supplies
// the driver (go list -export + go/types) and analysistest the fixture
// harness instead. Analyzers receive full type information and report
// through the Pass, exactly as they would under go vet -vettool.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in lint:ignore
	// directives.
	Name string
	// Doc is the one-paragraph description `detlint -help` prints.
	Doc string
	// Run executes the check, reporting findings through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned and attributed. Suppressed
// findings (absorbed by a reasoned lint:ignore) are retained for the
// machine-readable report rather than dropped.
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	pkg        *Package
	diags      []Diagnostic
	suppressed []Diagnostic
	ignores    map[string]map[int][]string // filename → line → analyzer names
}

// NewPass binds an analyzer to a loaded package.
func NewPass(a *Analyzer, pkg *Package) *Pass {
	return &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		pkg:      pkg,
	}
}

// Reportf records a diagnostic at pos. A lint:ignore directive naming
// this analyzer moves the finding to the suppressed list; a position
// inside a generated file drops it entirely (generated code is not
// hand-maintained against the tree's conventions).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pkg != nil && p.pkg.Generated[position.Filename] {
		return
	}
	d := Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if p.ignoredAt(position) {
		d.Suppressed = true
		p.suppressed = append(p.suppressed, d)
		return
	}
	p.diags = append(p.diags, d)
}

// Diagnostics returns the active (unsuppressed) findings reported so
// far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// SuppressedDiagnostics returns the findings lint:ignore directives
// absorbed, for machine-readable reports.
func (p *Pass) SuppressedDiagnostics() []Diagnostic { return p.suppressed }

// ignoredAt reports whether a directive for this analyzer covers the
// position: a directive on line L applies to lines L and L+1, so both
// end-of-line and line-above placements work.
func (p *Pass) ignoredAt(pos token.Position) bool {
	if p.ignores == nil {
		p.buildIgnores()
	}
	lines := p.ignores[pos.Filename]
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[l] {
			if name == p.Analyzer.Name {
				return true
			}
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore "

// parseIgnore splits a well-formed lint:ignore directive into its
// analyzer names; ok is false for comments that are not directives or
// directives missing the mandatory reason.
func parseIgnore(text string) (names string, ok bool) {
	rest, ok := strings.CutPrefix(text, ignorePrefix)
	if !ok {
		return "", false
	}
	names, reason, ok := strings.Cut(strings.TrimSpace(rest), " ")
	if !ok || strings.TrimSpace(reason) == "" {
		return "", false // no reason given: directive is inert
	}
	return names, true
}

// CountIgnoreDirectives counts the well-formed lint:ignore directives
// in a package's files — the suppression budget the CI gate holds
// constant (see cmd/detlint -ignore-budget).
func CountIgnoreDirectives(pkg *Package) int {
	n := 0
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := parseIgnore(c.Text); ok {
					n++
				}
			}
		}
	}
	return n
}

// buildIgnores indexes every well-formed lint:ignore directive in the
// pass's files. A directive must name at least one analyzer and give a
// non-empty reason; anything less does not suppress.
func (p *Pass) buildIgnores() {
	p.ignores = map[string]map[int][]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines := p.ignores[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					p.ignores[pos.Filename] = lines
				}
				for _, name := range strings.Split(names, ",") {
					lines[pos.Line] = append(lines[pos.Line], strings.TrimSpace(name))
				}
			}
		}
	}
}

// HotpathMarker opts code into the hotalloc analyzer: in a function's
// doc comment it marks that function, above a file's package clause it
// marks every function in the file.
const HotpathMarker = "//detlint:hotpath"

// FileHasHotpathMarker reports whether the file carries a hotpath
// marker above its package clause.
func FileHasHotpathMarker(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.End() >= f.Package {
			break
		}
		if commentGroupHasMarker(cg) {
			return true
		}
	}
	return false
}

// FuncHasHotpathMarker reports whether the function's doc comment
// carries a hotpath marker.
func FuncHasHotpathMarker(fd *ast.FuncDecl) bool {
	return fd.Doc != nil && commentGroupHasMarker(fd.Doc)
}

func commentGroupHasMarker(cg *ast.CommentGroup) bool {
	for _, c := range cg.List {
		if strings.TrimSpace(c.Text) == HotpathMarker {
			return true
		}
	}
	return false
}

// Unparen strips any enclosing parentheses from e (ast.Unparen predates
// the module's language version, so the helper lives here).
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// Callee resolves a call expression to the function or method object
// it invokes, or nil for builtins, conversions, and indirect calls
// through function values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// BuiltinName reports the name of the builtin a call invokes, if any.
func BuiltinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}

// IsConversion reports whether the call expression is a type
// conversion rather than a function call.
func IsConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}
