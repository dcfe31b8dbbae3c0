package schema

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
)

// diseaseTree is the §I-style sensitive hierarchy used across tests.
func diseaseTree() *hierarchy.Tree {
	return &hierarchy.Tree{Label: "*", Children: []*hierarchy.Tree{
		{Label: "Cancer", Children: []*hierarchy.Tree{
			{Label: "Ovarian-cancer"}, {Label: "Prostate-cancer"}, {Label: "Lung-cancer"},
		}},
		{Label: "Infection", Children: []*hierarchy.Tree{
			{Label: "Flu"}, {Label: "Pneumonia"},
		}},
	}}
}

// hospitalSpec is a small disease scenario mirroring the paper's §I
// example, with both hard negative associations.
func hospitalSpec() *Spec {
	return &Spec{
		Name: "hospital-test",
		Attributes: []Attr{
			{Name: "Age", Kind: "numeric", Range: &NumericRange{Min: 20, Max: 79}},
			{Name: "Sex", Kind: "categorical", Values: []string{"Female", "Male"}},
			{Name: "Disease", Kind: "categorical", Sensitive: true, Hierarchy: diseaseTree()},
		},
		Synthesis: &Synthesis{
			Weights: map[string]map[string]float64{
				"Disease": {"Flu": 4, "Pneumonia": 2, "Lung-cancer": 1.5},
			},
			Dependencies: []Dependency{
				{When: Condition{Attr: "Age", Min: f(60)}, Scale: map[string]float64{
					"Lung-cancer": 3, "Pneumonia": 2, "Flu": 0.5,
				}},
			},
			Constraints: []Constraint{
				{Attr: "Sex", Value: "Male", Sensitive: "Ovarian-cancer"},
				{Attr: "Sex", Value: "Female", Sensitive: "Prostate-cancer"},
			},
		},
	}
}

func f(v float64) *float64 { return &v }

func TestSpecValidateOK(t *testing.T) {
	if err := hospitalSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecDomainFromHierarchyLeaves(t *testing.T) {
	s := hospitalSpec()
	sch := s.DatasetSchema()
	// Disease declared without values: domain is the DFS leaf order.
	want := []string{"Ovarian-cancer", "Prostate-cancer", "Lung-cancer", "Flu", "Pneumonia"}
	if sch.Sensitive.Size() != len(want) {
		t.Fatalf("sensitive size = %d, want %d", sch.Sensitive.Size(), len(want))
	}
	for i, v := range want {
		if sch.Sensitive.Value(i) != v {
			t.Errorf("sensitive[%d] = %q, want %q", i, sch.Sensitive.Value(i), v)
		}
	}
	if sch.QI[0].Kind != dataset.Numeric || sch.QI[0].Size() != 60 {
		t.Errorf("Age: kind=%v size=%d, want numeric/60", sch.QI[0].Kind, sch.QI[0].Size())
	}
}

// mutate returns a copy of the hospital spec transformed by fn.
func mutate(fn func(*Spec)) *Spec {
	s := hospitalSpec()
	fn(s)
	return s
}

func TestSpecValidateErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		spec *Spec
		want string // substring of the error
	}{
		"missing name": {mutate(func(s *Spec) { s.Name = "" }), "missing name"},
		"too few attributes": {
			mutate(func(s *Spec) { s.Attributes = s.Attributes[2:] }), "at least one QI"},
		"duplicate attribute": {
			mutate(func(s *Spec) { s.Attributes[1].Name = "Age" }), "duplicate attribute"},
		"no sensitive": {
			mutate(func(s *Spec) { s.Attributes[2].Sensitive = false }), "no sensitive"},
		"two sensitive": {
			mutate(func(s *Spec) { s.Attributes[1].Sensitive = true }), "multiple sensitive"},
		"numeric sensitive": {
			mutate(func(s *Spec) {
				s.Attributes[2] = Attr{Name: "Disease", Kind: "numeric", Sensitive: true,
					Range: &NumericRange{Min: 0, Max: 3}}
			}), "must be categorical"},
		"bad kind": {
			mutate(func(s *Spec) { s.Attributes[1].Kind = "ordinal" }), "unknown kind"},
		"value not a leaf": {
			mutate(func(s *Spec) {
				s.Attributes[2].Values = []string{"Flu", "Ebola"}
			}), `"Ebola" is not a leaf`},
		"duplicate domain value": {
			mutate(func(s *Spec) { s.Attributes[1].Values = []string{"Female", "Female"} }),
			"duplicate domain value"},
		"empty categorical": {
			mutate(func(s *Spec) { s.Attributes[1].Values = nil }), "needs values or a hierarchy"},
		"range backwards": {
			mutate(func(s *Spec) { s.Attributes[0].Range = &NumericRange{Min: 10, Max: 0} }),
			"max 0 < min 10"},
		"range too large": {
			mutate(func(s *Spec) { s.Attributes[0].Range = &NumericRange{Min: 0, Max: 1e9} }),
			"exceeds"},
		"negative step": {
			mutate(func(s *Spec) { s.Attributes[0].Range.Step = -1 }), "must be positive"},
		"step underflow": {
			// (Max-Min)/step passes the arithmetic guard, but the step
			// is below the ulp at this magnitude, so enumeration would
			// never terminate without the iteration cap.
			mutate(func(s *Spec) {
				s.Attributes[0].Range = &NumericRange{Min: 1e16, Max: 1e16, Step: 1e-10}
			}), "exceeds"},
		"condition min above max": {
			mutate(func(s *Spec) {
				s.Synthesis.Dependencies[0].When = Condition{Attr: "Age", Min: f(50), Max: f(20)}
			}), "matches nothing"},
		"hierarchy on numeric": {
			mutate(func(s *Spec) { s.Attributes[0].Hierarchy = diseaseTree() }),
			"cannot have a hierarchy"},
		"unknown generator": {
			mutate(func(s *Spec) { s.Generator = "nope" }), `unknown generator "nope"`},
		"weights unknown attr": {
			mutate(func(s *Spec) { s.Synthesis.Weights["Zip"] = map[string]float64{"1": 1} }),
			"unknown attribute"},
		"weights unknown value": {
			mutate(func(s *Spec) { s.Synthesis.Weights["Disease"]["Ebola"] = 1 }),
			`unknown value "Ebola"`},
		"negative weight": {
			mutate(func(s *Spec) { s.Synthesis.Weights["Disease"]["Flu"] = -1 }),
			"want finite, >= 0"},
		"dependency on sensitive": {
			mutate(func(s *Spec) {
				s.Synthesis.Dependencies[0].When = Condition{Attr: "Disease", Values: []string{"Flu"}}
			}), "sensitive attribute itself"},
		"dependency numeric values": {
			mutate(func(s *Spec) {
				s.Synthesis.Dependencies[0].When = Condition{Attr: "Age", Values: []string{"30"}}
			}), "must use min/max"},
		"dependency categorical minmax": {
			mutate(func(s *Spec) {
				s.Synthesis.Dependencies[0].When = Condition{Attr: "Sex", Min: f(1)}
			}), "must use values"},
		"dependency unknown scale value": {
			mutate(func(s *Spec) { s.Synthesis.Dependencies[0].Scale = map[string]float64{"Ebola": 2} }),
			`unknown sensitive value "Ebola"`},
		"constraint unknown value": {
			mutate(func(s *Spec) { s.Synthesis.Constraints[0].Value = "Other" }),
			`"Other" is not a value`},
		"constraint unknown sensitive": {
			mutate(func(s *Spec) { s.Synthesis.Constraints[0].Sensitive = "Ebola" }),
			"is not a sensitive value"},
	} {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	s := hospitalSpec()
	a, err := Synthesize(s, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(s, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 400 {
		t.Fatalf("N = %d", a.N())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i].S != b.Records[i].S {
			t.Fatalf("record %d sensitive differs across equal-seed runs", i)
		}
		for j := range a.Records[i].QI {
			if a.Records[i].QI[j] != b.Records[i].QI[j] {
				t.Fatalf("record %d attr %d differs across equal-seed runs", i, j)
			}
		}
	}
	c, err := Synthesize(s, 400, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Records {
		if a.Records[i].S == c.Records[i].S {
			same++
		}
	}
	if same == 400 {
		t.Error("different seeds produced identical sensitive values")
	}
}

func TestSynthesizeHonorsConstraintsAndDependencies(t *testing.T) {
	s := hospitalSpec()
	tab, err := Synthesize(s, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	sch := tab.Schema
	male, _ := sch.QI[1].Index("Male")
	female, _ := sch.QI[1].Index("Female")
	ovarian, _ := sch.Sensitive.Index("Ovarian-cancer")
	prostate, _ := sch.Sensitive.Index("Prostate-cancer")
	lung, _ := sch.Sensitive.Index("Lung-cancer")
	var oldLung, oldTot, youngLung, youngTot int
	for ri, r := range tab.Records {
		if r.QI[1] == male && r.S == ovarian {
			t.Fatalf("record %d: male with ovarian cancer", ri)
		}
		if r.QI[1] == female && r.S == prostate {
			t.Fatalf("record %d: female with prostate cancer", ri)
		}
		if age := sch.QI[0].Num(r.QI[0]); age >= 60 {
			oldTot++
			if r.S == lung {
				oldLung++
			}
		} else {
			youngTot++
			if r.S == lung {
				youngLung++
			}
		}
	}
	if oldTot == 0 || youngTot == 0 {
		t.Fatal("degenerate age marginals")
	}
	oldRate := float64(oldLung) / float64(oldTot)
	youngRate := float64(youngLung) / float64(youngTot)
	if oldRate < 2*youngRate {
		t.Errorf("lung-cancer rate 60+: %.3f vs under-60: %.3f — dependency too weak", oldRate, youngRate)
	}
}

func TestSynthesizeAllZeroSensitiveFails(t *testing.T) {
	s := mutate(func(s *Spec) {
		// Forbid every disease for males: sampling must fail with a
		// precise error naming the QI combination, not loop or panic.
		for _, d := range []string{"Ovarian-cancer", "Prostate-cancer", "Lung-cancer", "Flu", "Pneumonia"} {
			s.Synthesis.Constraints = append(s.Synthesis.Constraints,
				Constraint{Attr: "Sex", Value: "Male", Sensitive: d})
		}
	})
	if err := s.Validate(); err != nil {
		t.Fatalf("statically undetectable over-constraint should still validate: %v", err)
	}
	_, err := Synthesize(s, 500, 1)
	if err == nil || !strings.Contains(err.Error(), "zero out every sensitive value") {
		t.Fatalf("err = %v, want zero-weight failure", err)
	}
}

func TestFingerprintContentAddressing(t *testing.T) {
	a, b := hospitalSpec(), hospitalSpec()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical specs got different fingerprints")
	}
	c := mutate(func(s *Spec) { s.Synthesis.Weights["Disease"]["Flu"] = 5 })
	if c.Fingerprint() == a.Fingerprint() {
		t.Error("different synthesis models share a fingerprint")
	}
	if !strings.HasPrefix(a.Fingerprint(), "sch_") {
		t.Errorf("fingerprint %q lacks sch_ prefix", a.Fingerprint())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	id, existed, err := r.Register(hospitalSpec())
	if err != nil || existed {
		t.Fatalf("first register: id=%q existed=%v err=%v", id, existed, err)
	}
	id2, existed, err := r.Register(hospitalSpec())
	if err != nil || !existed || id2 != id {
		t.Fatalf("re-register: id=%q existed=%v err=%v (want %q, true)", id2, existed, err, id)
	}
	// Same name, different content: conflict, not silent replacement.
	diff := mutate(func(s *Spec) { s.Synthesis.Weights["Disease"]["Flu"] = 9 })
	if _, _, err := r.Register(diff); err == nil {
		t.Fatal("name conflict accepted")
	} else if _, ok := err.(*ErrNameTaken); !ok {
		t.Fatalf("name conflict error type %T, want *ErrNameTaken", err)
	}
	// Resolution by id and by name land on the same spec.
	byID, gotID, ok := r.Resolve(id)
	if !ok || gotID != id {
		t.Fatal("resolve by id failed")
	}
	byName, gotID2, ok := r.Resolve("hospital-test")
	if !ok || gotID2 != id || byName != byID {
		t.Fatal("resolve by name failed")
	}
	if _, _, ok := r.Resolve("nope"); ok {
		t.Error("resolved an unknown ref")
	}
	renamed := mutate(func(s *Spec) { s.Name = "hospital-2" })
	if _, _, err := r.Register(renamed); err != nil {
		t.Fatalf("register renamed: %v", err)
	}
	// The registry deep-copies: mutating the caller's spec after
	// registration must not drift the stored content from its id.
	renamed.Attributes[1].Values[0] = "Mutated"
	renamed.Synthesis.Weights["Disease"]["Flu"] = 99
	stored, storedID, _ := r.Resolve("hospital-2")
	if stored.Attributes[1].Values[0] != "Female" || stored.Synthesis.Weights["Disease"]["Flu"] != 4 {
		t.Fatal("caller mutation reached the registered spec")
	}
	if stored.Fingerprint() != storedID {
		t.Fatalf("stored spec fingerprint %s drifted from id %s", stored.Fingerprint(), storedID)
	}
	list := r.List()
	if len(list) != 2 || list[0].Spec.Name != "hospital-2" || list[1].Spec.Name != "hospital-test" {
		t.Fatalf("list = %+v", list)
	}
	if len(r.byID) != 2 {
		t.Fatalf("len = %d", len(r.byID))
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for name, doc := range map[string]string{
		"not json":      `{{{`,
		"unknown field": `{"name":"x","attrs":[]}`,
		"trailing":      `{"name":"x","attributes":[{"name":"A","kind":"categorical","values":["a"]},{"name":"S","kind":"categorical","sensitive":true,"values":["s"]}]} extra`,
		"invalid spec":  `{"name":"x","attributes":[]}`,
	} {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckTable(t *testing.T) {
	s := hospitalSpec()
	good, err := Synthesize(s, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckTable(good); err != nil {
		t.Fatalf("synthesized table rejected: %v", err)
	}
	// A table with an out-of-schema categorical value.
	bad := &dataset.Table{
		Schema: &dataset.Schema{
			QI: []*dataset.Attribute{
				dataset.NewNumeric("Age", []float64{30}),
				dataset.NewCategorical("Sex", []string{"Female", "Unknown"}),
			},
			Sensitive: dataset.NewCategorical("Disease", []string{"Flu"}),
		},
	}
	if err := s.CheckTable(bad); err == nil || !strings.Contains(err.Error(), `"Unknown"`) {
		t.Fatalf("err = %v, want out-of-domain value error", err)
	}
	// A numeric value outside the declared hull.
	outOfRange := &dataset.Table{
		Schema: &dataset.Schema{
			QI: []*dataset.Attribute{
				dataset.NewNumeric("Age", []float64{150}),
				dataset.NewCategorical("Sex", []string{"Female"}),
			},
			Sensitive: dataset.NewCategorical("Disease", []string{"Flu"}),
		},
	}
	if err := s.CheckTable(outOfRange); err == nil || !strings.Contains(err.Error(), "150") {
		t.Fatalf("err = %v, want out-of-range error", err)
	}
}
