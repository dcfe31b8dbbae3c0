package incognito

import (
	"fmt"
	"sort"

	"repro/internal/anonymize"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/utility"
)

// Generalizer searches the full-domain generalization lattice for the
// minimal level vector whose equivalence classes all satisfy the
// privacy requirement.
type Generalizer struct {
	Table   *dataset.Table
	Ladders []*Ladder
	Req     privacy.Requirement
}

// Node is one lattice point: a level per QI attribute.
type Node []int

// clone copies a node.
func (n Node) clone() Node {
	c := make(Node, len(n))
	copy(c, n)
	return c
}

func (n Node) key() string {
	b := make([]byte, len(n))
	for i, l := range n {
		b[i] = byte(l)
	}
	return string(b)
}

// Search walks the lattice bottom-up in level-sum order, checks every
// node of a layer, and stops at the first layer with a satisfying node,
// returning the one with the smallest discernibility cost. Because no
// node is pruned or inferred, the result has the minimal level sum and
// is valid for any requirement, monotone under merging or not.
// Monotonicity was measured (TestMergeMonotonicity): k-anonymity, both
// ℓ-diversity models and t-closeness never failed; (B,t) and skyline
// failed in about 0.2% of merges, so a pruning search would be unsound
// for them.
func (g *Generalizer) Search() (Node, *anonymize.Result, error) {
	d := g.Table.Schema.D()
	if len(g.Ladders) != d {
		return nil, nil, fmt.Errorf("incognito: %d ladders for %d QI attributes", len(g.Ladders), d)
	}
	maxSum := 0
	for _, l := range g.Ladders {
		maxSum += l.Levels() - 1
	}
	for sum := 0; sum <= maxSum; sum++ {
		layer := g.layer(sum)
		type hit struct {
			node Node
			res  *anonymize.Result
			cost float64
		}
		var best *hit
		for _, node := range layer {
			res, ok := g.check(node)
			if !ok {
				continue
			}
			cost := utility.Discernibility(res)
			if best == nil || cost < best.cost {
				best = &hit{node: node, res: res, cost: cost}
			}
		}
		if best != nil {
			best.res.Algorithm = "incognito"
			best.res.Requirement = g.Req.Name()
			return best.node, best.res, nil
		}
	}
	return nil, nil, fmt.Errorf("incognito: no generalization satisfies %s: %w", g.Req.Name(), privacy.ErrUnsatisfiable)
}

// layer enumerates all level vectors with the given sum.
func (g *Generalizer) layer(sum int) []Node {
	var out []Node
	node := make(Node, len(g.Ladders))
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == len(g.Ladders) {
			if left == 0 {
				out = append(out, node.clone())
			}
			return
		}
		max := g.Ladders[i].Levels() - 1
		for l := 0; l <= max && l <= left; l++ {
			node[i] = l
			rec(i+1, left-l)
		}
	}
	rec(0, sum)
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// check groups the table under the node's recoding and verifies the
// requirement on every equivalence class.
func (g *Generalizer) check(node Node) (*anonymize.Result, bool) {
	classes := map[string][]int{}
	key := make([]byte, len(node))
	for ri, rec := range g.Table.Records {
		for i, l := range node {
			key[i] = byte(g.Ladders[i].Group[l][rec.QI[i]])
		}
		classes[string(key)] = append(classes[string(key)], ri)
	}
	res := &anonymize.Result{Table: g.Table}
	keys := make([]string, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rows := classes[k]
		if !g.Req.Satisfied(rows) {
			return nil, false
		}
		res.Groups = append(res.Groups, &anonymize.Group{
			Rows:   rows,
			Extent: anonymize.NewExtent(g.Table, rows),
		})
	}
	return res, true
}
