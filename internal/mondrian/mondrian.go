// Package mondrian implements the Mondrian multidimensional
// partitioning algorithm (LeFevre et al., ICDE 2006) in the variant the
// paper uses for its evaluation (§V): top-down recursion, dimension
// chosen by widest normalized range, median split, a split accepted
// only when both halves satisfy the composed privacy requirement.
// Categorical attributes are split over the total order of their
// domain (hierarchy traversal order), the standard Mondrian treatment.
package mondrian

import (
	"sort"

	"repro/internal/anonymize"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/privacy"
)

// parallelDepth is the recursion depth below which subtree goroutines
// are no longer spawned: past it, subproblems are too small to amortize
// a goroutine, and the token pool has long been saturated by the
// shallow splits anyway.
const parallelDepth = 16

// Partitioner holds the anonymization configuration.
type Partitioner struct {
	Table *dataset.Table
	// Req is checked on both halves of every candidate split, never on
	// the root: when no split is accepted, the result is the whole table
	// as one group, which may itself fail Req; core.Audit, which
	// core.Engine.RunAlgorithm runs, catches that. It must be safe for
	// concurrent calls when Workers permits more than one; every
	// requirement in this module is read-only after construction.
	Req privacy.Requirement
	// Workers bounds the goroutines partitioning subtrees concurrently,
	// under the parallel package convention (0 = all cores, negative =
	// sequential). The group list is identical at any setting: a
	// spawned right subtree collects into its own slice and is
	// appended after the left, preserving the in-order traversal.
	Workers int
	// Span, when set by a traced caller, records the whole recursion
	// as one mondrian stage span — a single coarse observation, so the
	// per-split hot path stays untimed. Nil is a free no-op.
	Span *obs.Span
}

// Anonymize runs Mondrian and returns the anonymized result.
func (p *Partitioner) Anonymize() *anonymize.Result {
	sp := p.Span.StartStage(obs.StageMondrian)
	sp.SetShape(obs.Shape{Rows: p.Table.N(), Dims: p.Table.Schema.D()})
	defer sp.End()
	rows := make([]int, p.Table.N())
	for i := range rows {
		rows[i] = i
	}
	res := &anonymize.Result{
		Table:       p.Table,
		Algorithm:   "mondrian",
		Requirement: p.Req.Name(),
	}
	// The calling goroutine counts as one worker, so the limiter hands
	// out workers−1 extra tokens; at one worker it always refuses and
	// the recursion is the plain sequential algorithm.
	lim := parallel.NewLimiter(parallel.Resolve(p.Workers) - 1)
	p.recurse(rows, 0, &res.Groups, lim)
	return res
}

// recurse splits rows as long as an allowable cut exists: dimensions
// are tried in decreasing normalized width, and the first median cut
// whose halves both satisfy the requirement is taken. Above the depth
// bound, the right subtree descends on its own goroutine when the
// limiter grants a token.
func (p *Partitioner) recurse(rows []int, depth int, out *[]*anonymize.Group, lim *parallel.Limiter) {
	for _, dim := range p.dimensionsByWidth(rows) {
		left, right := p.medianSplit(rows, dim)
		if left == nil {
			continue
		}
		if p.Req.Satisfied(left) && p.Req.Satisfied(right) {
			if depth < parallelDepth && lim.TryAcquire() {
				var rightGroups []*anonymize.Group
				wait := lim.Go(func() {
					p.recurse(right, depth+1, &rightGroups, lim)
				})
				p.recurse(left, depth+1, out, lim)
				wait()
				*out = append(*out, rightGroups...)
			} else {
				p.recurse(left, depth+1, out, lim)
				p.recurse(right, depth+1, out, lim)
			}
			return
		}
	}
	*out = append(*out, &anonymize.Group{
		Rows:   rows,
		Extent: anonymize.NewExtent(p.Table, rows),
	})
}

// width returns the normalized extent width of rows on dimension dim.
func (p *Partitioner) width(rows []int, dim int) float64 {
	lo, hi := p.Table.Schema.QI[dim].Size(), -1
	for _, ri := range rows {
		v := p.Table.Records[ri].QI[dim]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		return 0
	}
	a := p.Table.Schema.QI[dim]
	if a.Kind == dataset.Numeric {
		r := a.Range()
		if r == 0 {
			return 0
		}
		return (a.Num(hi) - a.Num(lo)) / r
	}
	return float64(hi-lo) / float64(a.Size()-1)
}

// dimensionsByWidth returns the splittable dimensions (width > 0)
// ordered by decreasing normalized width, ties broken by index so the
// algorithm is deterministic.
func (p *Partitioner) dimensionsByWidth(rows []int) []int {
	type dw struct {
		dim int
		w   float64
	}
	var cand []dw
	for dim := 0; dim < p.Table.Schema.D(); dim++ {
		if w := p.width(rows, dim); w > 0 {
			cand = append(cand, dw{dim, w})
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].w != cand[j].w {
			return cand[i].w > cand[j].w
		}
		return cand[i].dim < cand[j].dim
	})
	dims := make([]int, len(cand))
	for i, c := range cand {
		dims[i] = c.dim
	}
	return dims
}

// medianSplit partitions rows about the median value on dim, placing
// ties deterministically: values strictly below the median go left,
// strictly above go right, and the median's own records are balanced to
// make the halves as even as possible (LeFevre's strict variant relaxed
// to allow the median bucket to be divided). Returns nil when every
// record shares one value.
func (p *Partitioner) medianSplit(rows []int, dim int) (left, right []int) {
	vals := make([]int, len(rows))
	for i, ri := range rows {
		vals[i] = p.Table.Records[ri].QI[dim]
	}
	sorted := append([]int(nil), vals...)
	sort.Ints(sorted)
	if sorted[0] == sorted[len(sorted)-1] {
		return nil, nil
	}
	median := sorted[len(sorted)/2]
	// Split at the median value boundary: <= median goes left unless
	// that leaves the right empty, in which case < median goes left.
	leftCount := 0
	for _, v := range sorted {
		if v <= median {
			leftCount++
		}
	}
	useStrict := leftCount == len(sorted)
	for i, ri := range rows {
		v := vals[i]
		if (useStrict && v < median) || (!useStrict && v <= median) {
			left = append(left, ri)
		} else {
			right = append(right, ri)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return nil, nil
	}
	return left, right
}
