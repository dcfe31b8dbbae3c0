// Package adult provides the evaluation dataset substrate. The paper
// uses the UCI Adult census dataset (≈30K tuples after dropping missing
// values) with the seven attributes of its Table IV; that file cannot
// be redistributed here and the build is offline, so this package
// generates a synthetic Adult-like table with exactly the same schema
// and cardinalities — Age 74, Workclass 8, Education 16, Marital Status
// 7, Race 5, Sex 2, and sensitive Occupation 14 — and with explicit
// conditional structure between the QI attributes and Occupation, so
// that kernel-estimated priors genuinely vary across tuples and
// background-knowledge attacks have the correlations they exploit.
// Two occupations carry hard sex constraints (Armed-Forces is
// male-only, Priv-house-serv female-only), giving the dataset the
// deterministic negative-association knowledge ("males cannot have
// ovarian cancer") that motivates the paper's §I example.
//
// Generation is fully deterministic given (n, seed).
package adult

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/schema"
)

// Attribute domains, mirroring UCI Adult after removing missing values.
var (
	workclassValues = []string{
		"Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
		"Local-gov", "State-gov", "Without-pay", "Never-worked",
	}
	educationValues = []string{
		"Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th",
		"11th", "12th", "HS-grad", "Some-college", "Assoc-voc",
		"Assoc-acdm", "Bachelors", "Masters", "Prof-school", "Doctorate",
	}
	maritalValues = []string{
		"Never-married", "Married-civ-spouse", "Married-spouse-absent",
		"Married-AF-spouse", "Divorced", "Separated", "Widowed",
	}
	raceValues = []string{
		"White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other",
	}
	sexValues = []string{"Female", "Male"}

	occupationValues = []string{
		"Exec-managerial", "Prof-specialty", "Tech-support", "Adm-clerical",
		"Sales", "Craft-repair", "Machine-op-inspct", "Handlers-cleaners",
		"Transport-moving", "Farming-fishing", "Other-service",
		"Priv-house-serv", "Protective-serv", "Armed-Forces",
	}
)

// Occupation indexes used by the conditional model.
const (
	occExec = iota
	occProf
	occTech
	occClerical
	occSales
	occCraft
	occMachine
	occHandlers
	occTransport
	occFarming
	occService
	occHouseServ
	occProtective
	occArmed
)

// AgeMin and AgeMax delimit the Age domain (74 distinct values, as in
// the paper's Table IV).
const (
	AgeMin = 17
	AgeMax = 90
)

// NewSchema builds a fresh Adult schema from the registry spec.
// Attributes are freshly allocated so concurrent tables never share
// mutable state.
func NewSchema() *dataset.Schema { return Spec().DatasetSchema() }

// Specs returns the CSV column specs of the Adult schema, for loading
// external microdata files with the same layout (Age numeric;
// Workclass, Education, Marital-status, Race, Sex categorical;
// Occupation sensitive). Shared by the anonymize CLI and the serving
// layer's upload path.
func Specs() []dataset.ColumnSpec { return Spec().ColumnSpecs() }

// Hierarchies returns the generalization hierarchies for the
// categorical attributes, rebuilt from the registry spec's declarative
// trees. Occupation's hierarchy has height 2, matching §IV-B.2's
// smoothing-bandwidth discussion.
func Hierarchies() map[string]*hierarchy.Hierarchy { return Spec().Hierarchies() }

// builtinHierarchies is the literal source of the Adult hierarchies;
// Spec serializes these into declarative trees.
func builtinHierarchies() map[string]*hierarchy.Hierarchy {
	return map[string]*hierarchy.Hierarchy{
		// QI hierarchies have height 3, giving semantic distances
		// {1/3, 2/3, 1}: the adversary-bandwidth sweep b' ∈ [0.2, 0.5]
		// then genuinely varies categorical knowledge (b' > 1/3 starts
		// blending sibling values), not just the Age window.
		// Children are ordered so each hierarchy's DFS leaf order equals
		// the attribute's domain order: Mondrian's categorical index
		// ranges then respect subtree boundaries.
		"Workclass": hierarchy.MustNew(hierarchy.N("*",
			hierarchy.N("Employed",
				hierarchy.N("Private-sector", hierarchy.N("Private")),
				hierarchy.N("Self-employed",
					hierarchy.N("Self-emp-not-inc"), hierarchy.N("Self-emp-inc")),
				hierarchy.N("Government",
					hierarchy.N("Federal-gov"), hierarchy.N("Local-gov"), hierarchy.N("State-gov"))),
			hierarchy.N("Jobless",
				hierarchy.N("No-work",
					hierarchy.N("Without-pay"), hierarchy.N("Never-worked"))),
		)),
		"Education": hierarchy.MustNew(hierarchy.N("*",
			hierarchy.N("Pre-HS",
				hierarchy.N("Elementary",
					hierarchy.N("Preschool"), hierarchy.N("1st-4th"), hierarchy.N("5th-6th"),
					hierarchy.N("7th-8th")),
				hierarchy.N("Secondary",
					hierarchy.N("9th"), hierarchy.N("10th"), hierarchy.N("11th"),
					hierarchy.N("12th"))),
			hierarchy.N("Post-HS",
				hierarchy.N("HS-level",
					hierarchy.N("HS-grad"), hierarchy.N("Some-college")),
				hierarchy.N("Associate",
					hierarchy.N("Assoc-voc"), hierarchy.N("Assoc-acdm"))),
			hierarchy.N("Degree",
				hierarchy.N("Undergraduate", hierarchy.N("Bachelors")),
				hierarchy.N("Graduate",
					hierarchy.N("Masters"), hierarchy.N("Prof-school"), hierarchy.N("Doctorate"))),
		)),
		"Marital-status": hierarchy.MustNew(hierarchy.N("*",
			hierarchy.N("Single",
				hierarchy.N("Never", hierarchy.N("Never-married"))),
			hierarchy.N("Married",
				hierarchy.N("Civilian",
					hierarchy.N("Married-civ-spouse"), hierarchy.N("Married-spouse-absent")),
				hierarchy.N("Military", hierarchy.N("Married-AF-spouse"))),
			hierarchy.N("Formerly-married",
				hierarchy.N("Was-married",
					hierarchy.N("Divorced"), hierarchy.N("Separated"), hierarchy.N("Widowed"))),
		)),
		"Race": hierarchy.MustNew(hierarchy.N("*",
			hierarchy.N("Majority", hierarchy.N("White")),
			hierarchy.N("Minority",
				hierarchy.N("Black"), hierarchy.N("Asian-Pac-Islander"),
				hierarchy.N("Amer-Indian-Eskimo"), hierarchy.N("Other")),
		)),
		"Sex":        hierarchy.Flat("*", sexValues),
		"Occupation": OccupationHierarchy(),
	}
}

// OccupationHierarchy is the height-2 sensitive-attribute hierarchy:
// occupations grouped into white-collar, blue-collar, service, and
// other, then the root.
func OccupationHierarchy() *hierarchy.Hierarchy {
	return hierarchy.MustNew(hierarchy.N("*",
		hierarchy.N("White-collar",
			hierarchy.N("Exec-managerial"), hierarchy.N("Prof-specialty"),
			hierarchy.N("Tech-support"), hierarchy.N("Adm-clerical"),
			hierarchy.N("Sales")),
		hierarchy.N("Blue-collar",
			hierarchy.N("Craft-repair"), hierarchy.N("Machine-op-inspct"),
			hierarchy.N("Handlers-cleaners"), hierarchy.N("Transport-moving"),
			hierarchy.N("Farming-fishing")),
		hierarchy.N("Service",
			hierarchy.N("Other-service"), hierarchy.N("Priv-house-serv"),
			hierarchy.N("Protective-serv")),
		hierarchy.N("Other-occ", hierarchy.N("Armed-Forces")),
	))
}

// Generate builds a synthetic Adult-like table of n records with the
// given seed, dispatching through the schema registry's generator
// path (schema.Synthesize on Spec). The same (n, seed) always yields
// the same table.
func Generate(n int, seed int64) *dataset.Table {
	t, err := schema.Synthesize(Spec(), n, seed)
	if err != nil {
		// Spec registers its own generator in this package's init, so
		// dispatch cannot fail.
		panic(fmt.Sprintf("adult: %v", err))
	}
	return t
}

// generate is the native sampler behind the spec's "adult" generator.
func generate(n int, seed int64) *dataset.Table {
	sch := NewSchema()
	rng := rand.New(rand.NewSource(seed))
	t := &dataset.Table{Schema: sch, Records: make([]dataset.Record, 0, n)}
	for i := 0; i < n; i++ {
		t.Records = append(t.Records, sample(sch, rng))
	}
	return t
}

// sample draws one record from the conditional model.
func sample(sch *dataset.Schema, rng *rand.Rand) dataset.Record {
	age := sampleAge(rng)
	sex := sampleWeighted(rng, []float64{0.33, 0.67}) // Female, Male
	race := sampleWeighted(rng, []float64{0.855, 0.096, 0.031, 0.010, 0.008})
	edu := sampleEducation(rng, age)
	work := sampleWorkclass(rng, edu)
	marital := sampleMarital(rng, age)
	occ := sampleOccupation(rng, age, sex, edu, work)

	ageIdx := age - AgeMin
	return dataset.Record{
		QI: []int{ageIdx, work, edu, marital, race, sex},
		S:  occ,
	}
}

// sampleAge draws from a piecewise-linear age profile peaking in the
// late 20s to mid 40s, approximating the census age pyramid.
func sampleAge(rng *rand.Rand) int {
	// Weight by age: ramps 17→23, plateau 23→47, decay 47→90.
	w := func(a int) float64 {
		switch {
		case a < 23:
			return 0.4 + 0.1*float64(a-17)
		case a <= 47:
			return 1.0
		default:
			return 1.0 * declay(a-47)
		}
	}
	total := 0.0
	for a := AgeMin; a <= AgeMax; a++ {
		total += w(a)
	}
	x := rng.Float64() * total
	for a := AgeMin; a <= AgeMax; a++ {
		x -= w(a)
		if x <= 0 {
			return a
		}
	}
	return AgeMax
}

// declay is the exponential tail for ages past the plateau.
func declay(years int) float64 {
	v := 1.0
	for i := 0; i < years; i++ {
		v *= 0.955
	}
	return v
}

// Education tier boundaries in educationValues index space.
func eduTier(edu int) int {
	switch {
	case edu <= 7: // Preschool..12th
		return 0
	case edu <= 9: // HS-grad, Some-college
		return 1
	case edu <= 11: // Associate
		return 2
	default: // Bachelors..Doctorate
		return 3
	}
}

func sampleEducation(rng *rand.Rand, age int) int {
	base := []float64{
		0.002, 0.005, 0.010, 0.020, 0.016, 0.028, 0.036, 0.013, // < HS
		0.322, 0.224, 0.042, 0.032, // HS-grad, Some-college, Assoc
		0.164, 0.054, 0.017, 0.015, // Bachelors..Doctorate
	}
	// Older cohorts skew to lower attainment; prime-age skews degree-ward.
	w := append([]float64(nil), base...)
	if age >= 60 {
		for i := 0; i <= 7; i++ {
			w[i] *= 2.0
		}
	}
	if age >= 28 && age <= 50 {
		for i := 12; i <= 15; i++ {
			w[i] *= 1.3
		}
	}
	if age < 22 {
		// Degrees take time.
		for i := 13; i <= 15; i++ {
			w[i] *= 0.05
		}
		w[12] *= 0.3
	}
	return sampleWeighted(rng, w)
}

func sampleWorkclass(rng *rand.Rand, edu int) int {
	w := []float64{0.737, 0.083, 0.036, 0.031, 0.067, 0.042, 0.002, 0.002}
	if eduTier(edu) == 3 {
		w[3] *= 1.8 // Federal-gov
		w[5] *= 1.8 // State-gov
		w[2] *= 1.5 // Self-emp-inc
	}
	return sampleWeighted(rng, w)
}

func sampleMarital(rng *rand.Rand, age int) int {
	// Never, Married-civ, Spouse-absent, Married-AF, Divorced, Separated, Widowed
	switch {
	case age < 25:
		return sampleWeighted(rng, []float64{0.83, 0.13, 0.01, 0.004, 0.02, 0.01, 0.001})
	case age < 35:
		return sampleWeighted(rng, []float64{0.38, 0.49, 0.02, 0.004, 0.08, 0.02, 0.003})
	case age < 50:
		return sampleWeighted(rng, []float64{0.15, 0.60, 0.02, 0.002, 0.17, 0.03, 0.01})
	case age < 65:
		return sampleWeighted(rng, []float64{0.07, 0.62, 0.02, 0.001, 0.18, 0.02, 0.07})
	default:
		return sampleWeighted(rng, []float64{0.04, 0.50, 0.02, 0.001, 0.12, 0.01, 0.30})
	}
}

// sampleOccupation draws from a log-linear model over the 14
// occupations conditioned on age, sex, education tier, and workclass —
// the correlational knowledge the kernel estimator is meant to recover.
func sampleOccupation(rng *rand.Rand, age, sex, edu, work int) int {
	w := []float64{
		1.30, 1.32, 0.30, 1.20, 1.17, // Exec, Prof, Tech, Clerical, Sales
		1.31, 0.64, 0.44, 0.51, 0.32, // Craft, Machine, Handlers, Transport, Farming
		1.05, 0.05, 0.21, 0.003, // Service, House-serv, Protective, Armed
	}
	// The modifiers below are deliberately strong: the framework's
	// premise is that the sensitive attribute is well predicted by the
	// QI attributes (correlational knowledge), so conditional
	// distributions must be concentrated enough that a small-bandwidth
	// adversary's prior is genuinely sharp.
	tier := eduTier(edu)
	switch tier {
	case 0: // below high school: manual and service work dominates
		scale(w, []int{occExec, occProf, occTech}, 0.04)
		scale(w, []int{occSales}, 0.3)
		scale(w, []int{occCraft, occMachine, occHandlers, occTransport, occFarming}, 3.0)
		scale(w, []int{occService, occHouseServ}, 2.5)
	case 1:
		scale(w, []int{occProf}, 0.12)
		scale(w, []int{occExec}, 0.5)
		scale(w, []int{occCraft, occMachine, occTransport}, 1.8)
	case 2:
		scale(w, []int{occTech}, 3.5)
		scale(w, []int{occClerical}, 1.5)
		scale(w, []int{occProf}, 0.6)
		scale(w, []int{occHandlers, occFarming}, 0.4)
	case 3: // degree holders
		scale(w, []int{occProf}, 6.0)
		scale(w, []int{occExec}, 3.5)
		scale(w, []int{occTech}, 1.5)
		scale(w, []int{occCraft, occMachine, occHandlers, occTransport, occFarming}, 0.05)
		scale(w, []int{occService}, 0.2)
		scale(w, []int{occHouseServ}, 0.1)
	}
	if sex == 0 { // Female
		scale(w, []int{occClerical}, 3.5)
		scale(w, []int{occService}, 2.2)
		scale(w, []int{occHouseServ}, 10.0)
		scale(w, []int{occCraft, occTransport}, 0.06)
		scale(w, []int{occProtective}, 0.15)
		scale(w, []int{occMachine}, 0.35)
		scale(w, []int{occFarming}, 0.25)
		w[occArmed] = 0 // hard constraint: Armed-Forces is male-only
	} else {
		w[occHouseServ] = 0 // hard constraint: Priv-house-serv female-only
		scale(w, []int{occProtective}, 1.6)
	}
	switch work {
	case 1, 2: // self-employed
		scale(w, []int{occFarming}, 6.0)
		scale(w, []int{occExec, occCraft}, 2.0)
		scale(w, []int{occSales}, 1.8)
		scale(w, []int{occClerical, occProtective}, 0.25)
		scale(w, []int{occMachine}, 0.4)
		w[occArmed] = 0
	case 3, 4, 5: // government
		scale(w, []int{occProtective}, 6.0)
		scale(w, []int{occClerical}, 1.8)
		scale(w, []int{occProf}, 1.5)
		scale(w, []int{occSales}, 0.1)
		scale(w, []int{occFarming}, 0.15)
		scale(w, []int{occCraft}, 0.5)
	case 6, 7: // without-pay / never-worked
		scale(w, []int{occFarming, occService}, 2.5)
		scale(w, []int{occExec, occProf}, 0.2)
		w[occArmed] = 0
	}
	if age >= 55 {
		scale(w, []int{occArmed}, 0)
		scale(w, []int{occExec, occFarming}, 1.5)
	}
	if age < 22 {
		scale(w, []int{occExec}, 0.08)
		scale(w, []int{occProf}, 0.3)
		scale(w, []int{occService, occHandlers}, 2.5)
		scale(w, []int{occSales}, 2.0)
	}
	return sampleWeighted(rng, w)
}

func scale(w []float64, idx []int, f float64) {
	for _, i := range idx {
		w[i] *= f
	}
}

// sampleWeighted draws an index proportionally to the (unnormalized,
// non-negative) weights.
func sampleWeighted(rng *rand.Rand, w []float64) int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	u := rng.Float64() * total
	for i, x := range w {
		u -= x
		if u <= 0 && x > 0 {
			return i
		}
	}
	// Numerical tail: return the last positive-weight index.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return 0
}
