// Package privacy implements the privacy requirements compared in the
// paper's evaluation (§V): k-anonymity, distinct ℓ-diversity,
// probabilistic ℓ-diversity, t-closeness, and the paper's contribution,
// (B,t)-privacy and its skyline generalization. A requirement is a
// predicate over a candidate group of records, bound to the table it
// protects; anonymization algorithms accept any Requirement, so every
// model runs through the same Mondrian variant as in the paper. A
// (B,t) check decides by a log-free bound on the disclosure measure
// and measures exactly only the tuples whose bound exceeds t
// (ClassGains, distance.Bounded); its decision is the one the exact
// gains give.
package privacy

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/prob"
)

// ErrUnsatisfiable reports that no release an algorithm can produce
// from the table meets the requested requirement — the request, not
// the server, is at fault.
var ErrUnsatisfiable = errors.New("privacy: requirement unsatisfiable on this table")

// Requirement decides whether a candidate anonymization group satisfies
// a privacy model. rows are record indexes into the bound table.
type Requirement interface {
	Name() string
	Satisfied(rows []int) bool
}

// Criterion is what a requirement promises each record against one
// adversary (Figure 1's protocol): it is breached when Breach(prior,
// posterior) holds or, for a nil Breach, when its gain exceeds Gain.
type Criterion struct {
	Gain   float64
	Breach func(prior, post prob.Dist) bool
}

// Judge is a requirement's breach criterion against adversary Adv(b).
type Judge interface {
	Criterion(b []float64) Criterion
}

// And is the conjunction of several requirements; the paper composes
// every attribute-disclosure model with k-anonymity for identity
// disclosure (§V).
type And struct {
	Parts []Requirement
}

// Name implements Requirement.
func (a And) Name() string {
	names := make([]string, len(a.Parts))
	for i, p := range a.Parts {
		names[i] = p.Name()
	}
	return strings.Join(names, "+")
}

// Satisfied implements Requirement.
func (a And) Satisfied(rows []int) bool {
	for _, p := range a.Parts {
		if !p.Satisfied(rows) {
			return false
		}
	}
	return true
}

// Criterion implements Judge: the first part that is a Judge decides;
// with none, no record is ever breached.
func (a And) Criterion(b []float64) Criterion {
	for _, p := range a.Parts {
		if j, ok := p.(Judge); ok {
			return j.Criterion(b)
		}
	}
	return Criterion{Gain: math.Inf(1)}
}

// KAnonymity requires every group to contain at least K records.
type KAnonymity struct {
	K int
}

// Name implements Requirement.
func (k KAnonymity) Name() string { return fmt.Sprintf("%d-anonymity", k.K) }

// Satisfied implements Requirement.
func (k KAnonymity) Satisfied(rows []int) bool { return len(rows) >= k.K }

// DistinctLDiversity requires at least L distinct sensitive values in
// every group.
type DistinctLDiversity struct {
	L     int
	Table *dataset.Table
}

// Name implements Requirement.
func (l DistinctLDiversity) Name() string { return fmt.Sprintf("distinct-%d-diversity", l.L) }

// Satisfied implements Requirement.
func (l DistinctLDiversity) Satisfied(rows []int) bool {
	seen := make(map[int]struct{}, l.L)
	for _, ri := range rows {
		seen[l.Table.Records[ri].S] = struct{}{}
		if len(seen) >= l.L {
			return true
		}
	}
	return false
}

// Criterion implements Judge as probabilistic ℓ-diversity does.
func (l DistinctLDiversity) Criterion(b []float64) Criterion {
	return ProbabilisticLDiversity{L: float64(l.L)}.Criterion(b)
}

// ProbabilisticLDiversity requires the most frequent sensitive value in
// every group to have relative frequency at most 1/L.
type ProbabilisticLDiversity struct {
	L     float64
	Table *dataset.Table
}

// Name implements Requirement.
func (l ProbabilisticLDiversity) Name() string {
	return fmt.Sprintf("probabilistic-%g-diversity", l.L)
}

// Satisfied implements Requirement.
func (l ProbabilisticLDiversity) Satisfied(rows []int) bool {
	if len(rows) == 0 {
		return false
	}
	counts := l.Table.SensitiveCounts(rows)
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	return float64(maxC) <= float64(len(rows))/l.L
}

// Criterion implements Judge: the adversary pins some value with
// probability above 1/L, so the record's value is not well represented.
func (l ProbabilisticLDiversity) Criterion([]float64) Criterion {
	bound := 1 / l.L
	return Criterion{Breach: func(_, post prob.Dist) bool {
		mx, _ := post.Max()
		return mx > bound+prob.Epsilon
	}}
}

// TCloseness requires the EMD between each group's sensitive
// distribution and the whole table's to be at most T. Ground distances
// come from the sensitive attribute's semantic distance matrix.
type TCloseness struct {
	T     float64
	Table *dataset.Table
	Whole prob.Dist   // whole-table sensitive distribution
	M     [][]float64 // sensitive ground-distance matrix
}

// Name implements Requirement.
func (t TCloseness) Name() string { return fmt.Sprintf("%g-closeness", t.T) }

// Satisfied implements Requirement.
func (t TCloseness) Satisfied(rows []int) bool {
	if len(rows) == 0 {
		return false
	}
	p := prob.FromCounts(t.Table.SensitiveCounts(rows))
	return distance.EMD(p, t.Whole, t.M) <= t.T
}

// Criterion implements Judge: the release moves the adversary's belief
// by more than T in EMD, the model's own distance.
func (t TCloseness) Criterion([]float64) Criterion {
	return Criterion{Breach: func(prior, post prob.Dist) bool {
		return distance.EMD(prior, post, t.M) > t.T
	}}
}

// BTPrivacy is the (B,t)-privacy principle (Definition 1): for the
// adversary Adv(B) with per-record priors Priors, the distance between
// prior and posterior belief must be at most T for every record in the
// group. Posteriors come from the configured inference method (the
// Ω-estimate by default) and distances from the configured measure
// (the paper's kernel-smoothed JS divergence).
type BTPrivacy struct {
	T       float64
	Table   *dataset.Table
	Priors  []prob.Dist // indexed by record, from kernel.Estimator
	Measure distance.Measure
	Method  inference.Method
	// B is the bandwidth vector of Priors, shown in Name ("B=0.3").
	B []float64
}

// Name implements Requirement.
func (b BTPrivacy) Name() string {
	if b.B != nil {
		return fmt.Sprintf("(B=%s,%g)-privacy", kernel.BandwidthKey(b.B), b.T)
	}
	return fmt.Sprintf("(B,%g)-privacy", b.T)
}

// Criterion implements Judge: the knowledge gain exceeds T, at every
// adversary bandwidth.
func (b BTPrivacy) Criterion([]float64) Criterion { return Criterion{Gain: b.T} }

// method returns the configured inference method, defaulting to Ω.
func (b BTPrivacy) method() inference.Method {
	if b.Method == nil {
		return inference.Omega{}
	}
	return b.Method
}

// ClassGains is the one evaluation of an equivalence class shared by
// (B,t) checks, attacks, worst-case risk and the experiments: the
// method's posteriors for the class, then per tuple the knowledge gain
// gains[i] = distance.Bounded(d, priors[i], posts[i], floor). A gain
// above floor is exactly D[priors[i], posts[i]]; one at or below floor
// may be a log-free bound on it, which proves D ≤ floor. Attacks need
// every gain and pass floor = -Inf; a (B,t) check passes its T; a
// worst-case risk pass passes +Inf first, for bounds alone. counts is
// the class's sensitive histogram; gains and same are caller scratch
// of len(priors).
//
// The measure runs once per distinct (prior, posterior) pair: same[i]
// is tuple i's first sharer j ≤ i (inference.FirstSharers: the first
// tuple with a bit-identical prior) when j's posterior is also
// bit-identical to tuple i's, and then gains[i] copies gains[j];
// otherwise same[i] = i. That is exact for any deterministic measure.
// Ω shares one posterior per distinct prior, so each distinct prior is
// measured once; exact inference reuses only where its posteriors
// happen to agree bit for bit. The priors are looked up once per
// class: Ω takes the same sharer table (inference.TryPosteriors). A
// method that refuses the class (Exact on an oversized group) returns
// its error instead of panicking.
//
//detlint:hotpath
func ClassGains(m inference.Method, d distance.Measure, priors []prob.Dist, counts []int, gains []float64, same []int, floor float64) (posts []prob.Dist, err error) {
	inference.FirstSharers(priors, same)
	posts, err = inference.TryPosteriors(m, priors, counts, same)
	if err != nil {
		return nil, err
	}
	for i, prior := range priors {
		if j := same[i]; j != i && prob.Identical(posts[j], posts[i]) {
			gains[i] = gains[j]
			continue
		}
		same[i] = i
		gains[i] = distance.Bounded(d, prior, posts[i], floor)
	}
	return posts, nil
}

// Satisfied implements Requirement: the group's worst knowledge gain,
// max(0, gains), is at most T. The gains come from ClassGains at floor
// T, so a tuple whose log-free bound is at most T is never measured
// exactly; any gain above T is exact, so the decision is the one the
// exact gains give. A method that refuses the group (Exact on an
// oversized class) panics here, as Exact.Posteriors does.
func (b BTPrivacy) Satisfied(rows []int) bool {
	if len(rows) == 0 {
		return false
	}
	priors := make([]prob.Dist, len(rows))
	for i, ri := range rows {
		priors[i] = b.Priors[ri]
	}
	gains := make([]float64, len(rows))
	if _, err := ClassGains(b.method(), b.Measure, priors, b.Table.SensitiveCounts(rows), gains, make([]int, len(rows)), b.T); err != nil {
		panic(err)
	}
	worst := 0.0
	for _, g := range gains {
		if g > worst {
			worst = g
		}
	}
	return worst <= b.T
}

// Skyline is the skyline (B,t)-privacy principle (Definition 2): a
// conjunction of (B_i, t_i) requirements protecting simultaneously
// against adversaries with different knowledge levels.
type Skyline struct {
	Entries []BTPrivacy
}

// Name implements Requirement.
func (s Skyline) Name() string {
	parts := make([]string, len(s.Entries))
	for i, e := range s.Entries {
		parts[i] = e.Name()
	}
	return "skyline{" + strings.Join(parts, ",") + "}"
}

// Satisfied implements Requirement.
func (s Skyline) Satisfied(rows []int) bool {
	for _, e := range s.Entries {
		if !e.Satisfied(rows) {
			return false
		}
	}
	return len(s.Entries) > 0
}

// Criterion implements Judge by the entry nearest b in max-norm, the
// stricter (smaller t) when distances tie within prob.Epsilon; see
// DESIGN.md "Skyline criterion" for what that promises off the ladder.
func (s Skyline) Criterion(b []float64) Criterion {
	c, best := Criterion{Gain: math.Inf(1)}, math.Inf(1)
	for _, e := range s.Entries {
		d := 0.0
		for i := range e.B {
			d = math.Max(d, math.Abs(e.B[i]-b[i]))
		}
		if d < best-prob.Epsilon || d <= best+prob.Epsilon && e.T < c.Gain {
			c, best = e.Criterion(b), d
		}
	}
	return c
}
