package anonymize

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// paperTable builds the paper's Table I(a): 9 patients with Age, Sex,
// Disease.
func paperTable() *dataset.Table {
	sch := &dataset.Schema{
		QI: []*dataset.Attribute{
			dataset.NewNumeric("Age", []float64{42, 43, 45, 47, 50, 52, 56, 69}),
			dataset.NewCategorical("Sex", []string{"F", "M"}),
		},
		Sensitive: dataset.NewCategorical("Disease", []string{"Emphysema", "Cancer", "Flu", "Gastritis"}),
	}
	rows := []struct {
		age float64
		sex string
		dis string
	}{
		{69, "M", "Emphysema"}, {45, "F", "Cancer"}, {52, "F", "Flu"},
		{43, "F", "Gastritis"}, {42, "F", "Flu"}, {47, "F", "Cancer"},
		{50, "M", "Flu"}, {56, "M", "Emphysema"}, {52, "M", "Gastritis"},
	}
	t := &dataset.Table{Schema: sch}
	for _, r := range rows {
		ageIdx := -1
		for i, v := range sch.QI[0].Nums {
			if v == r.age {
				ageIdx = i
			}
		}
		sexIdx, _ := sch.QI[1].Index(r.sex)
		disIdx, _ := sch.Sensitive.Index(r.dis)
		t.Records = append(t.Records, dataset.Record{QI: []int{ageIdx, sexIdx}, S: disIdx})
	}
	return t
}

// tableIB is the paper's Table I(b) grouping: {1,2,3}, {4,5,6}, {7,8,9}
// (0-based: {0,1,2}, {3,4,5}, {6,7,8}).
func tableIB(t *dataset.Table) *Result {
	res := &Result{Table: t, Algorithm: "manual", Requirement: "3-diversity"}
	for _, rows := range [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}} {
		res.Groups = append(res.Groups, &Group{Rows: rows, Extent: NewExtent(t, rows)})
	}
	return res
}

func TestExtentCoversRecords(t *testing.T) {
	tab := paperTable()
	res := tableIB(tab)
	for gi, g := range res.Groups {
		for _, ri := range g.Rows {
			if !g.Extent.Contains(tab.Records[ri].QI) {
				t.Errorf("group %d extent misses record %d", gi, ri)
			}
		}
	}
}

func TestExtentSpans(t *testing.T) {
	tab := paperTable()
	res := tableIB(tab)
	// Group 1 (paper rows 1-3): ages {69,45,52} → [45,69], sexes {M,F} → *.
	g := res.Groups[0]
	age := tab.Schema.QI[0]
	if got := g.Extent.Format(age, 0); got != "[45,69]" {
		t.Errorf("age extent = %s, want [45,69]", got)
	}
	sex := tab.Schema.QI[1]
	if got := g.Extent.Format(sex, 1); got != "*" {
		t.Errorf("sex extent = %s, want *", got)
	}
	// Group 2: ages {43,42,47} → [42,47], sex F only.
	g2 := res.Groups[1]
	if got := g2.Extent.Format(age, 0); got != "[42,47]" {
		t.Errorf("age extent = %s, want [42,47]", got)
	}
	if got := g2.Extent.Format(sex, 1); got != "F" {
		t.Errorf("sex extent = %s, want F", got)
	}
}

func TestNormalizedSpan(t *testing.T) {
	tab := paperTable()
	res := tableIB(tab)
	age := tab.Schema.QI[0]
	// Group 1 spans [45,69] of range [42,69]: (69-45)/27.
	got := res.Groups[0].Extent.NormalizedSpan(age, 0)
	want := 24.0 / 27.0
	if got != want {
		t.Errorf("NormalizedSpan = %g, want %g", got, want)
	}
	sex := tab.Schema.QI[1]
	if got := res.Groups[0].Extent.NormalizedSpan(sex, 1); got != 1 {
		t.Errorf("sex span = %g, want 1", got)
	}
	if got := res.Groups[1].Extent.NormalizedSpan(sex, 1); got != 0 {
		t.Errorf("single-sex span = %g, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	tab := paperTable()
	res := tableIB(tab)
	if err := res.Validate(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	// Overlapping groups.
	bad := &Result{Table: tab, Groups: []*Group{
		{Rows: []int{0, 1}, Extent: NewExtent(tab, []int{0, 1})},
		{Rows: []int{1, 2}, Extent: NewExtent(tab, []int{1, 2})},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted overlapping groups")
	}
	// Missing coverage.
	bad2 := &Result{Table: tab, Groups: []*Group{
		{Rows: []int{0, 1, 2}, Extent: NewExtent(tab, []int{0, 1, 2})},
	}}
	if err := bad2.Validate(); err == nil {
		t.Error("accepted partial coverage")
	}
	// Empty group.
	bad3 := &Result{Table: tab, Groups: []*Group{{Rows: nil}}}
	if err := bad3.Validate(); err == nil {
		t.Error("accepted empty group")
	}
}

func TestSensitiveCounts(t *testing.T) {
	tab := paperTable()
	res := tableIB(tab)
	counts := res.SensitiveCounts(res.Groups[0])
	// Group 1 diseases: Emphysema, Cancer, Flu.
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 || counts[3] != 0 {
		t.Errorf("counts = %v", counts)
	}
}

func TestRender(t *testing.T) {
	tab := paperTable()
	res := tableIB(tab)
	out := res.Render()
	if !strings.Contains(out, "[45,69]") {
		t.Errorf("render missing generalized age:\n%s", out)
	}
	if !strings.Contains(out, "Emphysema") {
		t.Errorf("render missing sensitive value:\n%s", out)
	}
	if strings.Count(out, "---") != 2 {
		t.Errorf("render should separate 3 groups with 2 dividers:\n%s", out)
	}
}
