// Package injector implements the negative-association-rule approach to
// background-knowledge mining from the authors' prior work ("Injector:
// Mining Background Knowledge for Data Anonymization", ICDE 2008 —
// reference [7] of the paper), which §II-B generalizes. Injector mines
// rules of the form
//
//	QI-predicate ⇒ ¬ sensitive-value   (with 100% confidence)
//
// from the data: if no male in the table has ovarian cancer, "male ⇒
// ¬ovarian-cancer" is adversarial knowledge. The kernel framework
// subsumes these rules — a prior estimated at any bandwidth already
// assigns (near-)zero mass to values absent from the neighborhood —
// and this package makes the relationship testable: rules mined here
// can be applied as hard constraints on any prior, and the constrained
// priors can be compared against kernel-estimated ones.
package injector

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/prob"
)

// Rule is a negative association rule: records matching every
// (attribute, value-index) pair in Antecedent never take sensitive
// value Sensitive.
type Rule struct {
	// Antecedent lists (QI attribute index, domain value index) pairs,
	// sorted by attribute index; all must match.
	Antecedent []Item
	// Sensitive is the excluded sensitive domain index.
	Sensitive int
	// Support is the number of records matching the antecedent.
	Support int
}

// Item is one conjunct of a rule antecedent.
type Item struct {
	Attr  int
	Value int
}

// Matches reports whether a record satisfies the rule's antecedent.
func (r *Rule) Matches(rec dataset.Record) bool {
	for _, it := range r.Antecedent {
		if rec.QI[it.Attr] != it.Value {
			return false
		}
	}
	return true
}

// Miner configures rule mining.
type Miner struct {
	// MinSupport is the minimum number of records the antecedent must
	// cover for the absence of a sensitive value to count as knowledge
	// rather than sampling noise. Injector uses a support threshold for
	// exactly this reason.
	MinSupport int
	// MaxLen bounds the antecedent length (1 = single-attribute rules,
	// 2 = pairs, ...). Rule count grows combinatorially with MaxLen.
	MaxLen int
}

// Mine discovers all minimal negative association rules with 100%
// confidence: for each frequent antecedent (support ≥ MinSupport), each
// sensitive value absent from its matching records yields a rule. A
// rule is suppressed when a shorter rule with the same excluded value
// subsumes it (its antecedent is a superset of the shorter one's).
func (m *Miner) Mine(t *dataset.Table) []Rule {
	if m.MinSupport < 1 {
		m.MinSupport = 1
	}
	if m.MaxLen < 1 {
		m.MaxLen = 1
	}
	d := t.Schema.D()
	msens := t.Schema.M()

	// Level-wise (Apriori-style) search over antecedents.
	type node struct {
		items []Item
		rows  []int
	}
	var frontier []node
	// Level 1.
	for a := 0; a < d; a++ {
		byVal := map[int][]int{}
		for ri, rec := range t.Records {
			byVal[rec.QI[a]] = append(byVal[rec.QI[a]], ri)
		}
		for v, rows := range byVal {
			if len(rows) >= m.MinSupport {
				frontier = append(frontier, node{items: []Item{{a, v}}, rows: rows})
			}
		}
	}

	var rules []Rule
	// covered[s] records antecedents already excluding s, for
	// minimality pruning across levels.
	covered := make([][][]Item, msens)

	emit := func(n node) {
		counts := t.SensitiveCounts(n.rows)
		for s := 0; s < msens; s++ {
			if counts[s] != 0 {
				continue
			}
			if subsumed(covered[s], n.items) {
				continue
			}
			rules = append(rules, Rule{
				Antecedent: append([]Item(nil), n.items...),
				Sensitive:  s,
				Support:    len(n.rows),
			})
			covered[s] = append(covered[s], n.items)
		}
	}

	for level := 1; level <= m.MaxLen && len(frontier) > 0; level++ {
		// Deterministic order: sort by items.
		sort.Slice(frontier, func(i, j int) bool {
			return lessItems(frontier[i].items, frontier[j].items)
		})
		for _, n := range frontier {
			emit(n)
		}
		if level == m.MaxLen {
			break
		}
		// Extend each node with items on strictly larger attributes.
		var next []node
		for _, n := range frontier {
			lastAttr := n.items[len(n.items)-1].Attr
			for a := lastAttr + 1; a < d; a++ {
				byVal := map[int][]int{}
				for _, ri := range n.rows {
					v := t.Records[ri].QI[a]
					byVal[v] = append(byVal[v], ri)
				}
				for v, rows := range byVal {
					if len(rows) >= m.MinSupport {
						next = append(next, node{
							items: append(append([]Item(nil), n.items...), Item{a, v}),
							rows:  rows,
						})
					}
				}
			}
		}
		frontier = next
	}
	sortRules(rules)
	return rules
}

// subsumed reports whether some existing antecedent is a subset of
// items (making any rule on items redundant).
func subsumed(existing [][]Item, items []Item) bool {
	for _, e := range existing {
		if isSubset(e, items) {
			return true
		}
	}
	return false
}

func isSubset(sub, super []Item) bool {
	j := 0
	for _, s := range sub {
		found := false
		for ; j < len(super); j++ {
			if super[j] == s {
				found = true
				j++
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func lessItems(a, b []Item) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Attr != b[i].Attr {
			return a[i].Attr < b[i].Attr
		}
		if a[i].Value != b[i].Value {
			return a[i].Value < b[i].Value
		}
	}
	return len(a) < len(b)
}

func sortRules(rules []Rule) {
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Sensitive != rules[j].Sensitive {
			return rules[i].Sensitive < rules[j].Sensitive
		}
		return lessItems(rules[i].Antecedent, rules[j].Antecedent)
	})
}

// Apply constrains a prior with the rules that match the record:
// excluded sensitive values get zero mass and the distribution is
// renormalized. This is how Injector-style knowledge enters the
// paper's Bayesian machinery — as a prior transformation.
func Apply(rules []Rule, rec dataset.Record, prior prob.Dist) prob.Dist {
	out := prior.Clone()
	changed := false
	for i := range rules {
		if rules[i].Matches(rec) && out[rules[i].Sensitive] != 0 {
			out[rules[i].Sensitive] = 0
			changed = true
		}
	}
	if changed {
		out.Normalize()
	}
	return out
}

// ConstrainAll applies the rule set to every record's prior.
func ConstrainAll(rules []Rule, t *dataset.Table, priors []prob.Dist) []prob.Dist {
	out := make([]prob.Dist, len(priors))
	for ri := range priors {
		out[ri] = Apply(rules, t.Records[ri], priors[ri])
	}
	return out
}
