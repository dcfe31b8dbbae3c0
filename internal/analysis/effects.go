// Flow-aware effect inference: a package-level call graph over the
// loaded go/types info plus a conservative bottom-up effect pass, so
// analyzers can see through function calls instead of pattern-matching
// one statement at a time (the lockheld and shapepass invariants are
// unstatable syntactically; hotalloc's cold-path proof rides the same
// machinery).
//
// The lattice is a five-bit powerset — blocks/does-IO, allocates,
// reads-nondeterministic-source, acquires-lock, starts-goroutine —
// ordered by inclusion, so joins are bitwise OR and every transfer
// function is monotone. Same-package callees contribute their inferred
// effects, computed to a fixpoint over the package call graph (mutual
// recursion converges because the lattice is finite and effects only
// grow). Cross-package callees resolve through a small intrinsics
// table of audited stdlib and repro-internal signatures; anything the
// table does not know — interface methods, function values, untabled
// imports — widens to AllEffects. The default is therefore sound: an
// analyzer that forbids an effect can trust its absence, never its
// presence.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Effects is a bitset over the effect lattice.
type Effects uint8

const (
	// EffectBlocks: may block the calling goroutine — IO, channel
	// operations, sleeps, waits, or contention on another routine's
	// critical section.
	EffectBlocks Effects = 1 << iota
	// EffectAllocates: may allocate on the heap.
	EffectAllocates
	// EffectNondet: may read a nondeterministic ambient source (clock,
	// environment, global rand).
	EffectNondet
	// EffectLocks: may acquire a lock (sync.Mutex/RWMutex or a callee
	// that takes one — span recording is the common transitive case).
	EffectLocks
	// EffectGo: may start a goroutine.
	EffectGo
)

// NoEffects is the lattice bottom: a provably pure computation.
const NoEffects Effects = 0

// AllEffects is the lattice top — the sound default for any callee the
// inference cannot see through.
const AllEffects = EffectBlocks | EffectAllocates | EffectNondet | EffectLocks | EffectGo

// Has reports whether e includes any of the effects in mask.
func (e Effects) Has(mask Effects) bool { return e&mask != 0 }

// String renders the set for diagnostics and tests ("pure" for the
// bottom element).
func (e Effects) String() string {
	if e == 0 {
		return "pure"
	}
	var parts []string
	for _, p := range []struct {
		bit  Effects
		name string
	}{
		{EffectBlocks, "blocks"},
		{EffectAllocates, "allocates"},
		{EffectNondet, "nondet"},
		{EffectLocks, "locks"},
		{EffectGo, "go"},
	} {
		if e&p.bit != 0 {
			parts = append(parts, p.name)
		}
	}
	return strings.Join(parts, "|")
}

// EffectSite is one positioned source of effects inside a statement —
// what an analyzer reports when it forbids an effect in a region.
type EffectSite struct {
	Pos token.Pos
	// Effects the site may have.
	Effects Effects
	// What names the construct for diagnostics: "call to fmt.Println",
	// "send on channel", "select without default", ...
	What string
	// Deferred marks sites inside defer statements: they run at
	// function return, not at their syntactic position, so
	// region-based analyzers (lockheld) treat them separately.
	Deferred bool
}

// EffectInfo is one package's inferred effect table, computed lazily
// by Package.Effects and shared by every analyzer pass over the
// package.
type EffectInfo struct {
	pkg   *Package
	decls map[*types.Func]*ast.FuncDecl
	fns   map[*types.Func]Effects
}

// Effects returns the package's effect table, computing it on first
// use. Not safe for concurrent first calls; the detlint driver and
// the test harness run passes sequentially.
func (p *Package) Effects() *EffectInfo {
	if p.effects == nil {
		p.effects = computeEffects(p)
	}
	return p.effects
}

// Effects exposes the package's effect-inference table to an analyzer.
func (p *Pass) Effects() *EffectInfo { return p.pkg.Effects() }

// computeEffects builds the package call graph and runs the bottom-up
// fixpoint: every function starts at the lattice bottom and re-walks
// its body — same-package callees contributing their current table
// entry — until no entry grows. Deterministic: the iteration order is
// file/declaration order and the join is commutative, so the fixpoint
// is unique regardless of schedule.
func computeEffects(pkg *Package) *EffectInfo {
	ei := &EffectInfo{
		pkg:   pkg,
		decls: map[*types.Func]*ast.FuncDecl{},
		fns:   map[*types.Func]Effects{},
	}
	var order []*types.Func
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ei.decls[fn] = fd
			ei.fns[fn] = NoEffects
			order = append(order, fn)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			e := ei.NodeEffects(ei.decls[fn].Body)
			if e != ei.fns[fn] {
				ei.fns[fn] = e
				changed = true
			}
		}
	}
	return ei
}

// NodeEffects is the join of every effect site in the subtree.
func (ei *EffectInfo) NodeEffects(n ast.Node) Effects {
	var e Effects
	for _, s := range ei.Sites(n) {
		e |= s.Effects
	}
	return e
}

// Sites collects the positioned effect sources in a subtree. Nested
// function literals contribute one allocation site (building the
// closure) but their bodies do not run here, so their interiors are
// skipped — a literal that does run is seen either at its call site
// (immediately invoked or through a known higher-order intrinsic) or
// as AllEffects when it escapes to an unknown callee.
func (ei *EffectInfo) Sites(n ast.Node) []EffectSite {
	var sites []EffectSite
	ei.collect(n, false, &sites)
	return sites
}

func (ei *EffectInfo) collect(n ast.Node, deferred bool, out *[]EffectSite) {
	if n == nil {
		return
	}
	add := func(pos token.Pos, e Effects, what string) {
		if e != 0 {
			*out = append(*out, EffectSite{Pos: pos, Effects: e, What: what, Deferred: deferred})
		}
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			add(node.Pos(), EffectAllocates, "closure literal")
			return false // the body runs elsewhere
		case *ast.GoStmt:
			add(node.Pos(), EffectGo, "go statement")
			// Arguments are evaluated synchronously in the caller; the
			// invocation itself runs on the new goroutine.
			for _, arg := range node.Call.Args {
				ei.collect(arg, deferred, out)
			}
			return false
		case *ast.DeferStmt:
			// The deferred call runs in this goroutine at return time;
			// its effects happen, just not here — record the site with
			// the Deferred mark regardless of the ambient flag.
			if e := ei.CallEffects(node.Call); e != 0 {
				*out = append(*out, EffectSite{
					Pos:      node.Pos(),
					Effects:  e,
					What:     "deferred " + callDesc(ei.pkg.Info, node.Call),
					Deferred: true,
				})
			}
			for _, arg := range node.Call.Args {
				ei.collect(arg, true, out)
			}
			return false
		case *ast.SendStmt:
			add(node.Pos(), EffectBlocks, "send on channel")
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				add(node.Pos(), EffectBlocks, "receive from channel")
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range node.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				add(node.Pos(), EffectBlocks, "select without default")
			}
			// Walk clause bodies; comm statements of a defaulted select
			// are non-blocking, so they are skipped either way (a
			// blocking select was already recorded above).
			for _, c := range node.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						ei.collect(s, deferred, out)
					}
				}
			}
			return false
		case *ast.RangeStmt:
			if tv, ok := ei.pkg.Info.Types[node.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					add(node.Pos(), EffectBlocks, "range over channel")
				}
			}
		case *ast.CompositeLit:
			add(node.Pos(), EffectAllocates, "composite literal")
		case *ast.CallExpr:
			add(node.Pos(), ei.CallEffects(node), callDesc(ei.pkg.Info, node))
		}
		return true
	})
}

// CallEffects returns the effects of performing the call itself —
// argument subexpressions are visited separately by Sites, so they are
// deliberately excluded here.
func (ei *EffectInfo) CallEffects(call *ast.CallExpr) Effects {
	info := ei.pkg.Info
	if name, ok := BuiltinName(info, call); ok {
		switch name {
		case "append", "make", "new":
			return EffectAllocates
		}
		return NoEffects
	}
	if IsConversion(info, call) {
		if tv, ok := info.Types[call.Fun]; ok && isInterface(tv.Type) {
			return EffectAllocates // boxing
		}
		return NoEffects
	}
	if lit, ok := Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked literal: its body runs right here.
		return ei.NodeEffects(lit.Body)
	}
	fn := Callee(info, call)
	if fn == nil {
		return AllEffects // function value / indirect call
	}
	fn = fn.Origin()
	if e, ok := ei.fns[fn]; ok {
		return e
	}
	if fn.Pkg() == ei.pkg.Types {
		return AllEffects
	}
	if higherOrder[shortFuncName(fn)] {
		// Known call-through intrinsics (sort.Slice and friends): the
		// call does what its function arguments do, plus the scaffold's
		// own allocation. A non-literal function argument widens.
		e := EffectAllocates
		for _, arg := range call.Args {
			tv, ok := info.Types[arg]
			if !ok || tv.Type == nil {
				continue
			}
			if _, isFunc := tv.Type.Underlying().(*types.Signature); !isFunc {
				continue
			}
			if lit, ok := Unparen(arg).(*ast.FuncLit); ok {
				e |= ei.NodeEffects(lit.Body)
			} else {
				return AllEffects
			}
		}
		return e
	}
	return intrinsicEffects(fn)
}

// callDesc names a call for diagnostics.
func callDesc(info *types.Info, call *ast.CallExpr) string {
	if fn := Callee(info, call); fn != nil {
		return "call to " + shortFuncName(fn.Origin())
	}
	if _, ok := Unparen(call.Fun).(*ast.FuncLit); ok {
		return "call to function literal"
	}
	return "call through function value"
}

// FuncName renders fn in the intrinsics-table key space —
// "(*sync.Mutex).Lock", "time.Now" — for analyzers that key on
// specific callees (lockheld, shapepass, ctxflow).
func FuncName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	return shortFuncName(fn.Origin())
}

// shortFuncName renders fn with its package's name rather than its
// import path — "(*sync.Mutex).Lock", "time.Now" — which is the key
// space of the intrinsics table. Keying by package name (not path)
// lets the fixture harness exercise repro-internal intrinsics with
// mock packages of the same name.
func shortFuncName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			ptr = "*"
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			qual := ""
			if obj.Pkg() != nil {
				qual = obj.Pkg().Name() + "."
			}
			return "(" + ptr + qual + obj.Name() + ")." + fn.Name()
		}
		return "(" + ptr + t.String() + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// intrinsicEffects resolves an external function through the audited
// tables: exact signature first, then prefix rules, then the package
// default, then the sound top.
func intrinsicEffects(fn *types.Func) Effects {
	short := shortFuncName(fn)
	if e, ok := intrinsicFuncs[short]; ok {
		return e
	}
	for prefix, e := range intrinsicPrefixes {
		if strings.HasPrefix(short, prefix) {
			return e
		}
	}
	if fn.Pkg() != nil {
		if e, ok := intrinsicPkgs[fn.Pkg().Path()]; ok {
			return e
		}
	} else if fn.Name() == "Error" {
		// error.Error from the universe scope: rendering a message.
		return EffectAllocates
	}
	return AllEffects
}

// higherOrder marks intrinsics whose effect is running their function
// arguments.
var higherOrder = map[string]bool{
	"sort.Slice":         true,
	"sort.SliceStable":   true,
	"sort.SliceIsSorted": true,
	"sort.Search":        true,
}

// intrinsicFuncs: exact audited signatures. Only list entries whose
// effect set is SMALLER than their package default would give — the
// table is an allowlist of proofs, not documentation.
var intrinsicFuncs = map[string]Effects{
	// sync: acquiring is an effect, releasing is not; Wait blocks.
	"(*sync.Mutex).Lock":      EffectLocks,
	"(*sync.Mutex).TryLock":   NoEffects,
	"(*sync.Mutex).Unlock":    NoEffects,
	"(*sync.RWMutex).Lock":    EffectLocks,
	"(*sync.RWMutex).RLock":   EffectLocks,
	"(*sync.RWMutex).TryLock": NoEffects,
	"(*sync.RWMutex).Unlock":  NoEffects,
	"(*sync.RWMutex).RUnlock": NoEffects,
	"(*sync.WaitGroup).Add":   NoEffects,
	"(*sync.WaitGroup).Done":  NoEffects,
	"(*sync.WaitGroup).Wait":  EffectBlocks,

	// time: reading the clock is nondeterministic, arithmetic on
	// already-read values is pure, sleeping blocks.
	"time.Now":      EffectNondet,
	"time.Since":    EffectNondet,
	"time.Until":    EffectNondet,
	"time.Sleep":    EffectBlocks,
	"time.After":    EffectNondet | EffectAllocates | EffectGo,
	"time.Tick":     EffectNondet | EffectAllocates | EffectGo,
	"time.NewTimer": EffectNondet | EffectAllocates | EffectGo,

	// os: the environment reads are nondeterministic but non-blocking;
	// everything else in os falls through to AllEffects.
	"os.Getenv":    EffectNondet,
	"os.LookupEnv": EffectNondet,
	"os.Environ":   EffectNondet | EffectAllocates,

	// fmt: the S-family renders to memory; the rest of the package
	// defaults to blocking IO below.
	"fmt.Sprintf":  EffectAllocates,
	"fmt.Sprint":   EffectAllocates,
	"fmt.Sprintln": EffectAllocates,
	"fmt.Errorf":   EffectAllocates,

	// repro-internal observability: span recording contends on the
	// trace and reservoir mutexes (that is exactly what lockheld
	// forbids under a service lock); pure annotation accessors do not.
	"(*obs.Span).Child":      EffectLocks | EffectAllocates,
	"(*obs.Span).StartStage": EffectLocks | EffectAllocates,
	"(*obs.Span).End":        EffectLocks | EffectNondet,
	"(*obs.Span).SetOutcome": EffectLocks,
	"(*obs.Span).Outcome":    EffectLocks,
	"(*obs.Span).SetShape":   NoEffects,
	"(*obs.Span).Shape":      NoEffects,
	"(*obs.Span).Duration":   NoEffects,
	"obs.SpanFromContext":    NoEffects,
	"obs.ContextWithSpan":    EffectAllocates,

	// repro-internal concurrency substrate: the sanctioned goroutine
	// owners. Group and Cache run caller closures and block followers.
	"(*parallel.Limiter).Go": EffectGo | EffectAllocates,
	"parallel.Workers":       EffectGo | EffectAllocates,
	"parallel.WaitContext":   EffectBlocks | EffectGo | EffectAllocates,
	"parallel.NewLimiter":    EffectAllocates,
	"parallel.Resolve":       NoEffects,
}

// intrinsicPrefixes: audited method families.
var intrinsicPrefixes = map[string]Effects{
	// Seeded generators are deterministic given their source; only the
	// package-level (globally seeded) functions are nondeterministic,
	// and those fall through to the math/rand package default.
	"(*rand.Rand).": EffectAllocates,
	// time.Time / time.Duration arithmetic on values already read.
	"(time.Time).":     NoEffects,
	"(time.Duration).": NoEffects,
	// expvar counters are atomics.
	"(*expvar.Int).":   NoEffects,
	"(*expvar.Float).": NoEffects,
}

// intrinsicPkgs: audited package defaults, keyed by import path.
var intrinsicPkgs = map[string]Effects{
	"math":           NoEffects,
	"math/bits":      NoEffects,
	"math/cmplx":     NoEffects,
	"unicode":        NoEffects,
	"unicode/utf8":   NoEffects,
	"sort":           NoEffects, // in-place; call-through forms are higherOrder
	"sync/atomic":    NoEffects,
	"time":           NoEffects, // constructors/readers are tabled above
	"errors":         EffectAllocates,
	"strconv":        EffectAllocates,
	"strings":        EffectAllocates,
	"bytes":          EffectAllocates,
	"fmt":            EffectBlocks | EffectAllocates,
	"container/list": EffectAllocates,
	"container/heap": EffectAllocates,
	"encoding/json":  EffectAllocates,
	"encoding/hex":   EffectAllocates,
	"crypto/sha256":  EffectAllocates,
	"context":        EffectAllocates,
	"math/rand":      EffectNondet | EffectAllocates,
	"slices":         EffectAllocates,
	"maps":           EffectAllocates,
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}
