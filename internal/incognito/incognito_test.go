package incognito

import (
	"testing"

	"repro/internal/adult"
	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/mondrian"
	"repro/internal/privacy"
	"repro/internal/utility"
)

func TestNumericLadder(t *testing.T) {
	a := dataset.NewNumeric("Age", []float64{17, 18, 22, 23, 40, 90})
	l, err := NumericLadder(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if l.Levels() != 4 { // identity, 5-band, 10-band, *
		t.Fatalf("levels = %d, want 4", l.Levels())
	}
	// Level 0 is the identity.
	for v := 0; v < a.Size(); v++ {
		if l.Group[0][v] != v {
			t.Fatal("level 0 not identity")
		}
	}
	// 17 and 18 share a 5-year band starting at min=17: [17,22).
	if l.Group[1][0] != l.Group[1][1] {
		t.Error("17 and 18 should share the 5-year band")
	}
	if l.Group[1][1] == l.Group[1][2] {
		t.Error("18 and 22 should not share the 5-year band")
	}
	// Top level: one group.
	top := l.Group[l.Levels()-1]
	for _, g := range top {
		if g != 0 {
			t.Fatal("top level not fully generalized")
		}
	}
	if l.Labels[l.Levels()-1][0] != "*" {
		t.Error("top label should be *")
	}
}

func TestNumericLadderErrors(t *testing.T) {
	a := dataset.NewNumeric("Age", []float64{1, 2})
	if _, err := NumericLadder(a, []float64{10, 5}); err == nil {
		t.Error("accepted descending widths")
	}
	c := dataset.NewCategorical("Sex", []string{"F", "M"})
	if _, err := NumericLadder(c, nil); err == nil {
		t.Error("accepted categorical attribute")
	}
}

func TestHierarchyLadder(t *testing.T) {
	h := hierarchy.MustNew(hierarchy.N("*",
		hierarchy.N("Resp", hierarchy.N("Flu"), hierarchy.N("Emphysema")),
		hierarchy.N("Other", hierarchy.N("Cancer"), hierarchy.N("Gastritis")),
	))
	// Domain in DFS order.
	a := dataset.NewCategorical("Disease", h.Leaves())
	l, err := HierarchyLadder(a, h)
	if err != nil {
		t.Fatal(err)
	}
	if l.Levels() != 3 {
		t.Fatalf("levels = %d, want 3", l.Levels())
	}
	// Level 1: two groups with the internal labels.
	if l.Group[1][0] != l.Group[1][1] || l.Group[1][1] == l.Group[1][2] {
		t.Errorf("level-1 grouping wrong: %v", l.Group[1])
	}
	if l.Labels[1][0] != "Resp" || l.Labels[1][1] != "Other" {
		t.Errorf("level-1 labels = %v", l.Labels[1])
	}
	if l.Labels[2][0] != "*" {
		t.Errorf("root label = %v", l.Labels[2])
	}
}

func TestHierarchyLadderRejectsWrongOrder(t *testing.T) {
	h := hierarchy.MustNew(hierarchy.N("*",
		hierarchy.N("Resp", hierarchy.N("Flu"), hierarchy.N("Emphysema")),
		hierarchy.N("Other", hierarchy.N("Cancer"), hierarchy.N("Gastritis")),
	))
	// Interleaved domain order breaks group contiguity.
	a := dataset.NewCategorical("Disease", []string{"Flu", "Cancer", "Emphysema", "Gastritis"})
	if _, err := HierarchyLadder(a, h); err == nil {
		t.Error("accepted non-DFS domain order")
	}
}

func TestLaddersCoverSchema(t *testing.T) {
	sch := adult.NewSchema()
	ladders, err := Ladders(sch, adult.Hierarchies())
	if err != nil {
		t.Fatal(err)
	}
	if len(ladders) != sch.D() {
		t.Fatalf("ladders = %d, want %d", len(ladders), sch.D())
	}
	for i, l := range ladders {
		if l.Levels() < 2 {
			t.Errorf("%s ladder has %d levels", sch.QI[i].Name, l.Levels())
		}
		// Level 0 must be the identity for every attribute.
		for v := 0; v < sch.QI[i].Size(); v++ {
			if l.Group[0][v] != v {
				t.Fatalf("%s level 0 not identity", sch.QI[i].Name)
			}
		}
	}
}

func TestSearchFindsMinimalKAnonymous(t *testing.T) {
	tab := adult.Generate(300, 21)
	ladders, err := Ladders(tab.Schema, adult.Hierarchies())
	if err != nil {
		t.Fatal(err)
	}
	g := &Generalizer{Table: tab, Ladders: ladders, Req: privacy.KAnonymity{K: 3}}
	node, res, err := g.Search()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, gr := range res.Groups {
		if gr.Size() < 3 {
			t.Fatalf("group of %d under 3-anonymity", gr.Size())
		}
	}
	if res.Algorithm != "incognito" {
		t.Errorf("algorithm = %s", res.Algorithm)
	}
	// Minimality: no node with a strictly smaller level sum satisfies.
	sum := 0
	for _, l := range node {
		sum += l
	}
	if sum == 0 {
		t.Log("raw table already 3-anonymous (unusual but legal)")
	}
	for _, lower := range g.layer(sum - 1) {
		if _, ok := g.check(lower); ok {
			t.Fatalf("non-minimal: %v satisfies below returned %v", lower, node)
		}
	}
}

func TestSearchWithDiversity(t *testing.T) {
	tab := adult.Generate(400, 23)
	ladders, err := Ladders(tab.Schema, adult.Hierarchies())
	if err != nil {
		t.Fatal(err)
	}
	req := privacy.And{Parts: []privacy.Requirement{
		privacy.KAnonymity{K: 3},
		privacy.DistinctLDiversity{L: 3, Table: tab},
	}}
	g := &Generalizer{Table: tab, Ladders: ladders, Req: req}
	_, res, err := g.Search()
	if err != nil {
		t.Fatal(err)
	}
	for gi, gr := range res.Groups {
		if !req.Satisfied(gr.Rows) {
			t.Fatalf("group %d violates requirement", gi)
		}
	}
}

func TestSearchImpossible(t *testing.T) {
	tab := adult.Generate(50, 25)
	ladders, err := Ladders(tab.Schema, adult.Hierarchies())
	if err != nil {
		t.Fatal(err)
	}
	g := &Generalizer{Table: tab, Ladders: ladders, Req: privacy.KAnonymity{K: 100}}
	if _, _, err := g.Search(); err == nil {
		t.Error("satisfied an impossible requirement")
	}
}

func TestFullDomainVsMondrianUtility(t *testing.T) {
	// Full-domain generalization is globally uniform, so it can never
	// beat Mondrian's local recoding on discernibility — a classic
	// result worth pinning as a regression guard.
	tab := adult.Generate(500, 27)
	ladders, err := Ladders(tab.Schema, adult.Hierarchies())
	if err != nil {
		t.Fatal(err)
	}
	g := &Generalizer{Table: tab, Ladders: ladders, Req: privacy.KAnonymity{K: 4}}
	_, full, err := g.Search()
	if err != nil {
		t.Fatal(err)
	}
	// Mondrian on the same requirement.
	local := (&mondrian.Partitioner{Table: tab, Req: privacy.KAnonymity{K: 4}}).Anonymize()
	if utility.Discernibility(full) < utility.Discernibility(local) {
		t.Errorf("full-domain DM %.0f beat Mondrian DM %.0f",
			utility.Discernibility(full), utility.Discernibility(local))
	}
}
