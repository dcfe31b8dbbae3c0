// Command detlint runs the repo's invariant analyzers — the
// determinism, concurrency, observability, and hot-path checks under
// internal/analysis — over the module, in the spirit of a
// go vet -vettool pass. The offline tree cannot vendor the x/tools
// vet driver, so detlint carries its own loader (go list -export plus
// go/types) and multichecker loop; diagnostics, package scoping, and
// exit semantics match what a vettool would produce.
//
// Usage:
//
//	detlint [-md file] [-json file] [-ignore-budget file] [packages]
//
// With no package patterns it analyzes ./... . Each analyzer applies
// only to the packages where its invariant is load-bearing (see
// scopes); findings print as file:line:col: [analyzer] message and any
// finding makes the exit status 1.
//
//   - -md writes a markdown report for CI step summaries;
//   - -json writes the machine-readable report: every finding
//     (including the ones lint:ignore suppressed, flagged as such)
//     plus the package and suppression-budget counters;
//   - -ignore-budget reads an integer from a committed file and fails
//     if the tree's lint:ignore directive count exceeds it, so
//     suppressions can be retired but never quietly accrue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/canonjson"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockheld"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/nakedgo"
	"repro/internal/analysis/nondetsource"
	"repro/internal/analysis/shapepass"
)

// scope decides whether an analyzer applies to a package path.
type scope func(pkgPath string) bool

// scoped pairs an analyzer with the packages it patrols.
type scoped struct {
	analyzer *analysis.Analyzer
	applies  scope
}

// pkgs scopes an analyzer to an explicit allowlist (each entry matches
// itself and its subpackages).
func pkgs(paths ...string) scope {
	return func(p string) bool {
		for _, allowed := range paths {
			if p == allowed || strings.HasPrefix(p, allowed+"/") {
				return true
			}
		}
		return false
	}
}

// allExcept scopes an analyzer to the whole module minus a denylist.
func allExcept(paths ...string) scope {
	deny := pkgs(paths...)
	return func(p string) bool { return !deny(p) }
}

func everywhere(string) bool { return true }

// suite is the scoping table: which invariant patrols which packages.
//
//   - maporder guards the packages whose outputs must be bit-identical
//     or whose ids are content-derived;
//   - nondetsource guards compute paths — the service and experiment
//     edges legitimately read clocks, so they are out of scope;
//     internal/obs is in scope even though it is the sanctioned timing
//     package: its one clock read carries a reasoned lint:ignore, so
//     any new ambient read there still gets flagged;
//   - nakedgo patrols everything except internal/parallel, the one
//     package licensed to own goroutines and WaitGroups;
//   - hotalloc runs everywhere but only fires inside //detlint:hotpath
//     functions;
//   - canonjson guards the id-derivation packages;
//   - lockheld guards the mutex-heavy serving and observability
//     packages, where a blocking or lock-acquiring call inside a
//     critical section convoys the request path;
//   - shapepass guards every package that starts stage spans feeding
//     the cost model's reservoirs;
//   - ctxflow guards the compute layers' exported entry points, whose
//     context/span plumbing the explain surface depends on;
//   - atomicmix patrols everywhere: mixed atomic/plain access is a
//     data race no package is licensed to carry.
var suite = []scoped{
	{maporder.Analyzer, pkgs(
		"repro/internal/anonymize",
		"repro/internal/core",
		"repro/internal/costmodel",
		"repro/internal/dataset",
		"repro/internal/inference",
		"repro/internal/kernel",
		"repro/internal/mondrian",
		"repro/internal/schema",
		"repro/internal/service",
	)},
	{nondetsource.Analyzer, pkgs(
		"repro/internal/anonymize",
		"repro/internal/core",
		"repro/internal/costmodel",
		"repro/internal/dataset",
		"repro/internal/distance",
		"repro/internal/hierarchy",
		"repro/internal/inference",
		"repro/internal/injector",
		"repro/internal/kernel",
		"repro/internal/mondrian",
		"repro/internal/obs",
		"repro/internal/privacy",
		"repro/internal/prob",
		"repro/internal/schema",
	)},
	{nakedgo.Analyzer, allExcept("repro/internal/parallel")},
	{hotalloc.Analyzer, everywhere},
	{canonjson.Analyzer, pkgs(
		"repro/internal/schema",
		"repro/internal/service",
	)},
	{lockheld.Analyzer, pkgs(
		"repro/internal/service",
		"repro/internal/obs",
		"repro/internal/costmodel",
	)},
	{shapepass.Analyzer, pkgs(
		"repro/internal/core",
		"repro/internal/kernel",
		"repro/internal/mondrian",
		"repro/internal/service",
	)},
	{ctxflow.Analyzer, pkgs(
		"repro/internal/core",
		"repro/internal/kernel",
		"repro/internal/mondrian",
		"repro/internal/inference",
	)},
	{atomicmix.Analyzer, everywhere},
}

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// jsonReport is the -json payload.
type jsonReport struct {
	Packages         int           `json:"packages"`
	Findings         []jsonFinding `json:"findings"`
	Suppressed       int           `json:"suppressed"`
	IgnoreDirectives int           `json:"ignore_directives"`
}

func main() {
	mdPath := flag.String("md", "", "write a markdown report (for CI step summaries) to this file")
	jsonPath := flag.String("json", "", "write the machine-readable findings report to this file")
	budgetPath := flag.String("ignore-budget", "", "read the allowed lint:ignore count from this file and fail if the tree exceeds it")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: detlint [-md file] [-json file] [-ignore-budget file] [packages]\n\nanalyzers:\n")
		for _, s := range suite {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", s.analyzer.Name, s.analyzer.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loaded, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		os.Exit(2)
	}

	var diags, suppressedDiags []analysis.Diagnostic
	ignoreDirectives := 0
	for _, pkg := range loaded {
		ignoreDirectives += analysis.CountIgnoreDirectives(pkg)
		for _, s := range suite {
			if !s.applies(pkg.PkgPath) {
				continue
			}
			pass := analysis.NewPass(s.analyzer, pkg)
			if err := s.analyzer.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "detlint: %s: %s: %v\n", pkg.PkgPath, s.analyzer.Name, err)
				os.Exit(2)
			}
			diags = append(diags, pass.Diagnostics()...)
			suppressedDiags = append(suppressedDiags, pass.SuppressedDiagnostics()...)
		}
	}
	sortDiags(diags)
	sortDiags(suppressedDiags)

	cwd, _ := os.Getwd()
	rel := func(path string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(r, "..") {
				return r
			}
		}
		return path
	}

	findings := make([]jsonFinding, 0, len(diags)+len(suppressedDiags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File:     rel(d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	for _, d := range suppressedDiags {
		findings = append(findings, jsonFinding{
			File:       rel(d.Pos.Filename),
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Suppressed: true,
		})
	}

	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	fmt.Printf("detlint: %d package(s), %d finding(s), %d suppressed by lint:ignore, %d lint:ignore directive(s)\n",
		len(loaded), len(diags), len(suppressedDiags), ignoreDirectives)

	if *mdPath != "" {
		if err := writeMarkdown(*mdPath, len(loaded), len(suppressedDiags), findings); err != nil {
			fmt.Fprintf(os.Stderr, "detlint: writing %s: %v\n", *mdPath, err)
			os.Exit(2)
		}
	}
	if *jsonPath != "" {
		report := jsonReport{
			Packages:         len(loaded),
			Findings:         findings,
			Suppressed:       len(suppressedDiags),
			IgnoreDirectives: ignoreDirectives,
		}
		b, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "detlint: writing %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
	}

	failed := len(diags) > 0
	if *budgetPath != "" {
		budget, err := readBudget(*budgetPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detlint: reading ignore budget: %v\n", err)
			os.Exit(2)
		}
		if ignoreDirectives > budget {
			fmt.Fprintf(os.Stderr, "detlint: %d lint:ignore directive(s) exceed the committed budget of %d — fix the finding or justify raising %s\n",
				ignoreDirectives, budget, *budgetPath)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// sortDiags orders diagnostics by position then analyzer for stable
// output.
func sortDiags(diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// readBudget parses the committed suppression budget: one integer,
// whitespace tolerated.
func readBudget(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		return 0, fmt.Errorf("%s: %v", path, err)
	}
	return n, nil
}

// writeMarkdown renders the findings as a table for CI step summaries.
func writeMarkdown(path string, packages, suppressed int, findings []jsonFinding) error {
	active := 0
	for _, f := range findings {
		if !f.Suppressed {
			active++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### detlint\n\n")
	fmt.Fprintf(&b, "%d package(s) analyzed, **%d finding(s)**, %d suppressed by `lint:ignore`.\n\n",
		packages, active, suppressed)
	if active == 0 {
		b.WriteString("Clean: every determinism, concurrency, observability, and hot-path invariant holds.\n")
	} else {
		b.WriteString("| Location | Analyzer | Finding |\n|---|---|---|\n")
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			fmt.Fprintf(&b, "| `%s:%d:%d` | %s | %s |\n",
				f.File, f.Line, f.Col,
				f.Analyzer, strings.ReplaceAll(f.Message, "|", "\\|"))
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
