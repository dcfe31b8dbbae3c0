package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return &Schema{
		QI: []*Attribute{
			NewNumeric("Age", []float64{42, 43, 45, 47, 50, 52, 56, 69}),
			NewCategorical("Sex", []string{"F", "M"}),
		},
		Sensitive: NewCategorical("Disease", []string{"Emphysema", "Cancer", "Flu", "Gastritis"}),
	}
}

// paperTable builds the paper's Table I(a).
func paperTable() *Table {
	sch := testSchema()
	rows := []struct {
		age float64
		sex string
		dis string
	}{
		{69, "M", "Emphysema"}, {45, "F", "Cancer"}, {52, "F", "Flu"},
		{43, "F", "Gastritis"}, {42, "F", "Flu"}, {47, "F", "Cancer"},
		{50, "M", "Flu"}, {56, "M", "Emphysema"}, {52, "M", "Gastritis"},
	}
	t := &Table{Schema: sch}
	for _, r := range rows {
		ageIdx := -1
		for i, v := range sch.QI[0].Nums {
			if v == r.age {
				ageIdx = i
			}
		}
		sexIdx, _ := sch.QI[1].Index(r.sex)
		disIdx, _ := sch.Sensitive.Index(r.dis)
		t.Records = append(t.Records, Record{QI: []int{ageIdx, sexIdx}, S: disIdx})
	}
	return t
}

func TestNumericAttribute(t *testing.T) {
	a := NewNumeric("Age", []float64{50, 42, 42, 69})
	if a.Size() != 3 {
		t.Fatalf("Size = %d, want 3 (dedup)", a.Size())
	}
	if a.Num(0) != 42 || a.Num(2) != 69 {
		t.Errorf("values not sorted: %v", a.Nums)
	}
	if a.Range() != 27 {
		t.Errorf("Range = %g, want 27", a.Range())
	}
	if i, ok := a.Index("50"); !ok || i != 1 {
		t.Errorf("Index(50) = %d, %v", i, ok)
	}
}

func TestCategoricalAttribute(t *testing.T) {
	a := NewCategorical("Sex", []string{"F", "M"})
	if a.Kind != Categorical || a.Size() != 2 {
		t.Fatalf("bad attribute: %+v", a)
	}
	if a.Range() != 1 {
		t.Errorf("Range = %g", a.Range())
	}
	if _, ok := a.Index("X"); ok {
		t.Error("Index accepted unknown value")
	}
}

func TestDuplicateCategoricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate categorical value")
		}
	}()
	NewCategorical("X", []string{"a", "a"})
}

func TestNormalizedDistance(t *testing.T) {
	a := NewNumeric("Age", []float64{0, 10, 100})
	if d := a.NormalizedDistance(0, 2); d != 1 {
		t.Errorf("full-range distance = %g", d)
	}
	if d := a.NormalizedDistance(0, 1); d != 0.1 {
		t.Errorf("distance = %g, want 0.1", d)
	}
	if d := a.NormalizedDistance(1, 1); d != 0 {
		t.Errorf("self distance = %g", d)
	}
}

func TestNumOnCategoricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for Num on categorical")
		}
	}()
	NewCategorical("Sex", []string{"F", "M"}).Num(0)
}

func TestTableValidate(t *testing.T) {
	tab := paperTable()
	if err := tab.Validate(); err != nil {
		t.Fatalf("paper table invalid: %v", err)
	}
	bad := &Table{Schema: tab.Schema, Records: []Record{{QI: []int{0, 5}, S: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted out-of-domain QI index")
	}
	bad2 := &Table{Schema: tab.Schema, Records: []Record{{QI: []int{0}, S: 0}}}
	if err := bad2.Validate(); err == nil {
		t.Error("Validate accepted wrong QI arity")
	}
	bad3 := &Table{Schema: tab.Schema, Records: []Record{{QI: []int{0, 0}, S: 9}}}
	if err := bad3.Validate(); err == nil {
		t.Error("Validate accepted out-of-domain sensitive index")
	}
}

func TestSensitiveCounts(t *testing.T) {
	tab := paperTable()
	counts := tab.SensitiveCounts(nil)
	// Emphysema 2, Cancer 2, Flu 3, Gastritis 2.
	want := []int{2, 2, 3, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("counts[%d] = %d, want %d", i, counts[i], w)
		}
	}
	sub := tab.SensitiveCounts([]int{0, 7})
	if sub[0] != 2 {
		t.Errorf("subset counts = %v", sub)
	}
}

func TestProfiles(t *testing.T) {
	tab := paperTable()
	profs := tab.Profiles()
	// Table I(a) has 9 distinct (Age,Sex) pairs except t3 (52,F) vs t9
	// (52,M) which differ in sex — all 9 unique.
	if len(profs) != 9 {
		t.Fatalf("profiles = %d, want 9", len(profs))
	}
	// Add a duplicate QI record and re-profile.
	tab.Records = append(tab.Records, tab.Records[0])
	profs = tab.Profiles()
	if len(profs) != 9 {
		t.Fatalf("profiles after dup = %d, want 9", len(profs))
	}
	total := 0
	for _, p := range profs {
		total += p.Weight()
		sum := 0
		for _, c := range p.Counts {
			sum += c
		}
		if sum != p.Weight() {
			t.Errorf("profile counts sum %d != weight %d", sum, p.Weight())
		}
	}
	if total != tab.N() {
		t.Errorf("profile weights sum %d != N %d", total, tab.N())
	}
}

func TestProfilesPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sch := testSchema()
		tab := &Table{Schema: sch}
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			tab.Records = append(tab.Records, Record{
				QI: []int{rng.Intn(sch.QI[0].Size()), rng.Intn(2)},
				S:  rng.Intn(4),
			})
		}
		profs := tab.Profiles()
		seen := make([]bool, n)
		for _, p := range profs {
			for _, ri := range p.Rows {
				if seen[ri] {
					return false
				}
				seen[ri] = true
				for ai, v := range tab.Records[ri].QI {
					if v != p.QI[ai] {
						return false
					}
				}
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := paperTable()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	specs := []ColumnSpec{
		{Name: "Age", Kind: Numeric},
		{Name: "Sex", Kind: Categorical},
		{Name: "Disease", Kind: Categorical, Sensitive: true},
	}
	got, err := ReadCSV(&buf, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != tab.N() {
		t.Fatalf("N = %d, want %d", got.N(), tab.N())
	}
	for i := range got.Records {
		wantAge := tab.Schema.QI[0].Value(tab.Records[i].QI[0])
		gotAge := got.Schema.QI[0].Value(got.Records[i].QI[0])
		if wantAge != gotAge {
			t.Errorf("record %d age %s != %s", i, gotAge, wantAge)
		}
		if got.Schema.Sensitive.Value(got.Records[i].S) != tab.Schema.Sensitive.Value(tab.Records[i].S) {
			t.Errorf("record %d sensitive mismatch", i)
		}
	}
}

func TestReadCSVDropsMissing(t *testing.T) {
	in := "Age,Sex,Disease\n42,F,Flu\n50,?,Cancer\n60,M,\n70,M,Flu\n"
	specs := []ColumnSpec{
		{Name: "Age", Kind: Numeric},
		{Name: "Sex", Kind: Categorical},
		{Name: "Disease", Kind: Categorical, Sensitive: true},
	}
	tab, err := ReadCSV(strings.NewReader(in), specs)
	if err != nil {
		t.Fatal(err)
	}
	if tab.N() != 2 {
		t.Fatalf("N = %d, want 2 (rows with ? and empty dropped)", tab.N())
	}
}

func TestReadCSVErrors(t *testing.T) {
	specs := []ColumnSpec{
		{Name: "Age", Kind: Numeric},
		{Name: "Disease", Kind: Categorical, Sensitive: true},
	}
	if _, err := ReadCSV(strings.NewReader("Nope,Disease\n1,Flu\n"), specs); err == nil {
		t.Error("accepted missing column")
	}
	if _, err := ReadCSV(strings.NewReader("Age,Disease\nxx,Flu\n"), specs); err == nil {
		t.Error("accepted non-numeric value")
	}
	noSens := []ColumnSpec{{Name: "Age", Kind: Numeric}}
	if _, err := ReadCSV(strings.NewReader("Age\n1\n"), noSens); err == nil {
		t.Error("accepted schema without sensitive column")
	}
}
