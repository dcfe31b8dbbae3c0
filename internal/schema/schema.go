// Package schema is the dataset-description subsystem: a declarative,
// JSON-loadable descriptor of a microdata table — QI attributes with
// categorical domains or numeric ranges, per-attribute generalization
// hierarchies as nested label trees, one designated sensitive
// attribute, and an optional conditional synthesis model — plus a
// content-addressed registry and a generic deterministic synthesizer.
//
// The paper (§II-A) formulates background-knowledge attacks over an
// arbitrary table; this package is what lets the rest of the system
// operate over arbitrary tables too. A Spec is the single source of
// truth a scenario needs: the serving layer registers specs over HTTP
// and keys datasets by them, the binaries load them from JSON files,
// and internal/adult re-expresses the paper's evaluation dataset as
// the built-in registered spec.
//
// Synthesis follows the paper's generative premise: QI attributes are
// drawn from per-attribute weight profiles, and the sensitive
// attribute is drawn conditionally on the QI values through weighted
// dependencies — multiplicative modifiers on the sensitive weights
// when a QI condition matches — and hard negative-association
// constraints (the §I "males cannot have ovarian cancer" example),
// which force a sensitive value's weight to zero outright. Generation
// is fully deterministic given (spec, n, seed).
package schema

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
)

// sortedKeys returns m's keys in sorted order. Every map walk whose
// per-key effect is observable — validation error selection, compiled
// model layout — goes through this so the outcome is independent of
// Go's randomized map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MaxDomainSize bounds the cardinality a single attribute domain may
// declare. Kernel weight tables and distance matrices are O(r²) per
// attribute, so an unbounded domain is a memory grenade, not a bigger
// dataset.
const MaxDomainSize = 4096

// Spec is a declarative dataset descriptor. The zero value is invalid;
// build one in code or Parse one from JSON, then Validate (Parse and
// Registry.Register validate for you).
type Spec struct {
	// Name is the human handle ("adult", "hospital"); the registry
	// resolves it alongside the content-addressed id.
	Name string `json:"name"`
	// Doc is an optional one-line description.
	Doc string `json:"doc,omitempty"`
	// Attributes lists every column in order. Exactly one must be
	// sensitive; the rest are quasi-identifiers.
	Attributes []Attr `json:"attributes"`
	// Synthesis is the conditional generation model. Optional: a spec
	// without one can still decode uploaded CSV, and synthesizes with
	// uniform marginals.
	Synthesis *Synthesis `json:"synthesis,omitempty"`
	// Generator names a built-in native sampler registered with
	// RegisterGenerator (e.g. "adult"), overriding declarative
	// synthesis. Unknown names fail validation.
	Generator string `json:"generator,omitempty"`
}

// Attr declares one column.
type Attr struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"` // "numeric" | "categorical"
	Sensitive bool   `json:"sensitive,omitempty"`
	// Values is the categorical domain. It may be omitted when
	// Hierarchy is set, in which case the domain is the hierarchy's
	// DFS leaf order — the order Mondrian range splits want.
	Values []string `json:"values,omitempty"`
	// Range declares a numeric domain as an inclusive stepped interval.
	Range *NumericRange `json:"range,omitempty"`
	// Numbers declares a numeric domain by explicit values.
	Numbers []float64 `json:"numbers,omitempty"`
	// Hierarchy is the generalization hierarchy (categorical only).
	// Every domain value must be one of its leaves.
	Hierarchy *hierarchy.Tree `json:"hierarchy,omitempty"`
}

// NumericRange is an inclusive [Min, Max] interval stepped by Step
// (default 1): Min, Min+Step, …, up to Max.
type NumericRange struct {
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Step float64 `json:"step,omitempty"`
}

// Synthesis is the conditional generation model: marginal weight
// profiles per attribute, plus QI→sensitive dependencies and hard
// negative-association constraints.
type Synthesis struct {
	// Weights maps attribute name → value → sampling weight. Missing
	// attributes or values default to weight 1, so a profile only
	// needs to name the values it skews.
	Weights map[string]map[string]float64 `json:"weights,omitempty"`
	// Dependencies scale the sensitive weights for records whose QI
	// values match the condition. Applied in order, multiplicatively.
	Dependencies []Dependency `json:"dependencies,omitempty"`
	// Constraints are hard negative associations: a record matching
	// (Attr, Value) can never carry the Sensitive value.
	Constraints []Constraint `json:"constraints,omitempty"`
}

// Dependency is one weighted QI→sensitive edge: when the condition
// matches, each named sensitive value's weight is multiplied by its
// factor (0 forbids it for matching records).
type Dependency struct {
	When  Condition          `json:"when"`
	Scale map[string]float64 `json:"scale"`
}

// Condition matches a record's value of one QI attribute: any of
// Values for a categorical attribute, the inclusive [Min, Max]
// interval for a numeric one (either bound may be omitted).
type Condition struct {
	Attr   string   `json:"attr"`
	Values []string `json:"values,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

// Constraint is one hard negative association, e.g.
// {Attr: "Sex", Value: "Male", Sensitive: "Ovarian-cancer"}.
type Constraint struct {
	Attr      string `json:"attr"`
	Value     string `json:"value"`
	Sensitive string `json:"sensitive"`
}

// domain materializes the attribute's declared domain values.
func (a *Attr) domain() ([]string, error) {
	switch a.Kind {
	case "categorical":
		if len(a.Values) > 0 {
			return a.Values, nil
		}
		if a.Hierarchy == nil {
			return nil, fmt.Errorf("attribute %s: categorical needs values or a hierarchy", a.Name)
		}
		h, err := hierarchy.FromTree(a.Hierarchy)
		if err != nil {
			return nil, fmt.Errorf("attribute %s: %w", a.Name, err)
		}
		return h.Leaves(), nil
	case "numeric":
		if a.Range != nil && len(a.Numbers) > 0 {
			return nil, fmt.Errorf("attribute %s: range and numbers are mutually exclusive", a.Name)
		}
		if a.Range != nil {
			nums, err := a.Range.values()
			if err != nil {
				return nil, fmt.Errorf("attribute %s: %w", a.Name, err)
			}
			return formatNums(nums), nil
		}
		if len(a.Numbers) > 0 {
			return formatNums(a.Numbers), nil
		}
		return nil, fmt.Errorf("attribute %s: numeric needs a range or numbers", a.Name)
	default:
		return nil, fmt.Errorf("attribute %s: unknown kind %q (want numeric|categorical)", a.Name, a.Kind)
	}
}

// nums materializes the numeric domain values (numeric attributes only).
func (a *Attr) nums() ([]float64, error) {
	if a.Range != nil {
		return a.Range.values()
	}
	return a.Numbers, nil
}

func (r *NumericRange) values() ([]float64, error) {
	step := r.Step
	if step == 0 {
		step = 1
	}
	if step < 0 || math.IsNaN(step) || math.IsInf(step, 0) {
		return nil, fmt.Errorf("range step %g must be positive and finite", r.Step)
	}
	if math.IsNaN(r.Min) || math.IsNaN(r.Max) || math.IsInf(r.Min, 0) || math.IsInf(r.Max, 0) {
		return nil, fmt.Errorf("range bounds must be finite")
	}
	if r.Max < r.Min {
		return nil, fmt.Errorf("range max %g < min %g", r.Max, r.Min)
	}
	if (r.Max-r.Min)/step >= MaxDomainSize {
		return nil, fmt.Errorf("range [%g,%g] step %g exceeds %d values", r.Min, r.Max, step, MaxDomainSize)
	}
	var out []float64
	for i := 0; ; i++ {
		// The i-based cap backs up the arithmetic guard above: with a
		// tiny step at a large magnitude, Min + i*step can round back
		// to Min every iteration and never pass Max.
		if i > MaxDomainSize {
			return nil, fmt.Errorf("range [%g,%g] step %g exceeds %d values (step underflows at this magnitude)",
				r.Min, r.Max, step, MaxDomainSize)
		}
		v := r.Min + float64(i)*step
		if v > r.Max {
			break
		}
		out = append(out, v)
	}
	return out, nil
}

func formatNums(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}

// Validate checks the whole spec for coherence and returns the first
// problem as a precise, user-facing error: registration surfaces it as
// a 400 instead of a failure deep inside CSV decoding or a later
// panic. It checks, per the registry's contract:
//
//   - the spec has a name and at least two attributes;
//   - attribute names are unique and kinds are well-formed;
//   - exactly one attribute is sensitive, and it is categorical;
//   - every declared domain is non-empty, within MaxDomainSize, and
//     free of duplicate values;
//   - every hierarchy builds (unique leaves, no empty labels) and
//     every domain value is one of its leaves;
//   - the synthesis model only references declared attributes and
//     domain values, with finite non-negative weights, and cannot zero
//     out the entire sensitive domain unconditionally;
//   - a named Generator is actually registered.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema: missing name")
	}
	if len(s.Attributes) < 2 {
		return fmt.Errorf("schema %s: need at least one QI attribute and the sensitive attribute", s.Name)
	}
	seen := map[string]bool{}
	sensAt := -1
	domains := map[string]map[string]bool{}
	for i := range s.Attributes {
		a := &s.Attributes[i]
		if a.Name == "" {
			return fmt.Errorf("schema %s: attribute %d has no name", s.Name, i)
		}
		if seen[a.Name] {
			return fmt.Errorf("schema %s: duplicate attribute name %q", s.Name, a.Name)
		}
		seen[a.Name] = true
		if a.Sensitive {
			if sensAt >= 0 {
				return fmt.Errorf("schema %s: multiple sensitive attributes (%s and %s)",
					s.Name, s.Attributes[sensAt].Name, a.Name)
			}
			if a.Kind != "categorical" {
				return fmt.Errorf("schema %s: sensitive attribute %s must be categorical", s.Name, a.Name)
			}
			sensAt = i
		}
		dom, err := a.domain()
		if err != nil {
			return fmt.Errorf("schema %s: %w", s.Name, err)
		}
		if len(dom) == 0 {
			return fmt.Errorf("schema %s: attribute %s has an empty domain", s.Name, a.Name)
		}
		if len(dom) > MaxDomainSize {
			return fmt.Errorf("schema %s: attribute %s domain has %d values (max %d)",
				s.Name, a.Name, len(dom), MaxDomainSize)
		}
		domSet := make(map[string]bool, len(dom))
		for _, v := range dom {
			if v == "" {
				return fmt.Errorf("schema %s: attribute %s has an empty domain value", s.Name, a.Name)
			}
			if domSet[v] {
				return fmt.Errorf("schema %s: attribute %s has duplicate domain value %q", s.Name, a.Name, v)
			}
			domSet[v] = true
		}
		domains[a.Name] = domSet
		if a.Hierarchy != nil {
			if a.Kind != "categorical" {
				return fmt.Errorf("schema %s: numeric attribute %s cannot have a hierarchy", s.Name, a.Name)
			}
			h, err := hierarchy.FromTree(a.Hierarchy)
			if err != nil {
				return fmt.Errorf("schema %s: attribute %s: %w", s.Name, a.Name, err)
			}
			for _, v := range dom {
				if _, ok := h.Leaf(v); !ok {
					return fmt.Errorf("schema %s: attribute %s: domain value %q is not a leaf of its hierarchy",
						s.Name, a.Name, v)
				}
			}
		}
	}
	if sensAt < 0 {
		return fmt.Errorf("schema %s: no sensitive attribute declared", s.Name)
	}
	if s.Generator != "" {
		generatorsMu.Lock()
		_, ok := generators[s.Generator]
		generatorsMu.Unlock()
		if !ok {
			return fmt.Errorf("schema %s: unknown generator %q", s.Name, s.Generator)
		}
	}
	if s.Synthesis != nil {
		if err := s.validateSynthesis(domains, s.Attributes[sensAt].Name); err != nil {
			return fmt.Errorf("schema %s: synthesis: %w", s.Name, err)
		}
	}
	return nil
}

func (s *Spec) validateSynthesis(domains map[string]map[string]bool, sensName string) error {
	syn := s.Synthesis
	// Walk maps in sorted key order so the first validation error — the
	// one surfaced to the caller — is the same on every run.
	for _, attr := range sortedKeys(syn.Weights) {
		profile := syn.Weights[attr]
		dom, ok := domains[attr]
		if !ok {
			return fmt.Errorf("weights reference unknown attribute %q", attr)
		}
		for _, v := range sortedKeys(profile) {
			w := profile[v]
			if !dom[v] {
				return fmt.Errorf("weights for %s reference unknown value %q", attr, v)
			}
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("weight %s=%q is %g (want finite, >= 0)", attr, v, w)
			}
		}
		// A profile that zeroes the whole domain can never draw a value.
		if len(profile) == len(dom) {
			positive := 0
			for _, w := range profile {
				if w > 0 {
					positive++
				}
			}
			if positive == 0 {
				return fmt.Errorf("weights zero out the entire %s domain", attr)
			}
		}
	}
	sensDom := domains[sensName]
	for di, dep := range syn.Dependencies {
		if err := validateCondition(s, dep.When, domains, sensName); err != nil {
			return fmt.Errorf("dependency %d: %w", di, err)
		}
		if len(dep.Scale) == 0 {
			return fmt.Errorf("dependency %d: empty scale", di)
		}
		for _, v := range sortedKeys(dep.Scale) {
			f := dep.Scale[v]
			if !sensDom[v] {
				return fmt.Errorf("dependency %d scales unknown sensitive value %q", di, v)
			}
			if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("dependency %d scale %q=%g (want finite, >= 0)", di, v, f)
			}
		}
	}
	for ci, c := range syn.Constraints {
		if c.Attr == sensName {
			return fmt.Errorf("constraint %d conditions on the sensitive attribute itself", ci)
		}
		dom, ok := domains[c.Attr]
		if !ok {
			return fmt.Errorf("constraint %d references unknown attribute %q", ci, c.Attr)
		}
		if !dom[c.Value] {
			return fmt.Errorf("constraint %d: %q is not a value of %s", ci, c.Value, c.Attr)
		}
		if !sensDom[c.Sensitive] {
			return fmt.Errorf("constraint %d: %q is not a sensitive value", ci, c.Sensitive)
		}
	}
	return nil
}

func validateCondition(s *Spec, c Condition, domains map[string]map[string]bool, sensName string) error {
	if c.Attr == "" {
		return fmt.Errorf("condition has no attribute")
	}
	if c.Attr == sensName {
		return fmt.Errorf("condition on the sensitive attribute itself")
	}
	dom, ok := domains[c.Attr]
	if !ok {
		return fmt.Errorf("condition references unknown attribute %q", c.Attr)
	}
	var attr *Attr
	for i := range s.Attributes {
		if s.Attributes[i].Name == c.Attr {
			attr = &s.Attributes[i]
		}
	}
	if attr.Kind == "numeric" {
		if len(c.Values) > 0 {
			return fmt.Errorf("condition on numeric %s must use min/max, not values", c.Attr)
		}
		if c.Min == nil && c.Max == nil {
			return fmt.Errorf("condition on numeric %s needs min and/or max", c.Attr)
		}
		if c.Min != nil && c.Max != nil && *c.Min > *c.Max {
			return fmt.Errorf("condition on %s has min %g > max %g (matches nothing)", c.Attr, *c.Min, *c.Max)
		}
		return nil
	}
	if c.Min != nil || c.Max != nil {
		return fmt.Errorf("condition on categorical %s must use values, not min/max", c.Attr)
	}
	if len(c.Values) == 0 {
		return fmt.Errorf("condition on %s has no values", c.Attr)
	}
	for _, v := range c.Values {
		if !dom[v] {
			return fmt.Errorf("condition value %q is not in the %s domain", v, c.Attr)
		}
	}
	return nil
}

// SensitiveName returns the sensitive attribute's name. Valid specs
// have exactly one; call only after Validate.
func (s *Spec) SensitiveName() string {
	for i := range s.Attributes {
		if s.Attributes[i].Sensitive {
			return s.Attributes[i].Name
		}
	}
	return ""
}

// QINames returns the QI attribute names in declaration order.
func (s *Spec) QINames() []string {
	var out []string
	for i := range s.Attributes {
		if !s.Attributes[i].Sensitive {
			out = append(out, s.Attributes[i].Name)
		}
	}
	return out
}

// ColumnSpecs derives the CSV column layout for loading external
// microdata under this spec.
func (s *Spec) ColumnSpecs() []dataset.ColumnSpec {
	out := make([]dataset.ColumnSpec, len(s.Attributes))
	for i := range s.Attributes {
		a := &s.Attributes[i]
		kind := dataset.Categorical
		if a.Kind == "numeric" {
			kind = dataset.Numeric
		}
		out[i] = dataset.ColumnSpec{Name: a.Name, Kind: kind, Sensitive: a.Sensitive}
	}
	return out
}

// DatasetSchema materializes the declared domains as a fresh
// dataset.Schema. Attributes are freshly allocated per call, so
// concurrent tables never share mutable state. Call only after
// Validate; an invalid spec panics here.
func (s *Spec) DatasetSchema() *dataset.Schema {
	sch := &dataset.Schema{}
	for i := range s.Attributes {
		a := &s.Attributes[i]
		var attr *dataset.Attribute
		if a.Kind == "numeric" {
			nums, err := a.nums()
			if err != nil {
				panic(fmt.Sprintf("schema: %s: %v (validate first)", a.Name, err))
			}
			attr = dataset.NewNumeric(a.Name, nums)
		} else {
			dom, err := a.domain()
			if err != nil {
				panic(fmt.Sprintf("schema: %s: %v (validate first)", a.Name, err))
			}
			attr = dataset.NewCategorical(a.Name, dom)
		}
		if a.Sensitive {
			sch.Sensitive = attr
		} else {
			sch.QI = append(sch.QI, attr)
		}
	}
	return sch
}

// Hierarchies builds the generalization hierarchies declared by the
// spec, keyed by attribute name. Attributes without a declared tree
// are omitted; downstream layers fall back to flat hierarchies.
func (s *Spec) Hierarchies() map[string]*hierarchy.Hierarchy {
	out := map[string]*hierarchy.Hierarchy{}
	for i := range s.Attributes {
		a := &s.Attributes[i]
		if a.Hierarchy == nil {
			continue
		}
		h, err := hierarchy.FromTree(a.Hierarchy)
		if err != nil {
			panic(fmt.Sprintf("schema: %s: %v (validate first)", a.Name, err))
		}
		out[a.Name] = h
	}
	return out
}

// CheckTable verifies that a decoded table's observed domains are
// covered by the spec: every categorical value must be declared (and
// hence a hierarchy leaf where one exists), and numeric values must
// lie inside the declared domain's hull. This is the upload-time
// guard: a CSV with out-of-schema values gets a precise error here
// instead of an opaque engine-build failure later.
func (s *Spec) CheckTable(t *dataset.Table) error {
	declared := s.DatasetSchema()
	byName := map[string]*dataset.Attribute{}
	for _, a := range declared.QI {
		byName[a.Name] = a
	}
	byName[declared.Sensitive.Name] = declared.Sensitive
	check := func(obs *dataset.Attribute) error {
		decl, ok := byName[obs.Name]
		if !ok {
			return fmt.Errorf("schema %s: column %q not in schema", s.Name, obs.Name)
		}
		if obs.Kind == dataset.Numeric {
			lo, hi := decl.Nums[0], decl.Nums[len(decl.Nums)-1]
			for _, v := range obs.Nums {
				if v < lo || v > hi {
					return fmt.Errorf("schema %s: column %s value %g outside declared range [%g, %g]",
						s.Name, obs.Name, v, lo, hi)
				}
			}
			return nil
		}
		for _, v := range obs.Values {
			if _, ok := decl.Index(v); !ok {
				return fmt.Errorf("schema %s: column %s value %q not in declared domain", s.Name, obs.Name, v)
			}
		}
		return nil
	}
	for _, a := range t.Schema.QI {
		if err := check(a); err != nil {
			return err
		}
	}
	return check(t.Schema.Sensitive)
}

// canonicalJSON renders the spec in its canonical byte form:
// encoding/json marshals struct fields in declaration order and map
// keys sorted, so Marshal of the Spec is already canonical.
func (s *Spec) canonicalJSON() []byte {
	//lint:ignore canonjson encoding/json sorts map keys and the registry's golden fingerprint tests pin these exact bytes; swapping encoders requires a deliberate id migration
	b, err := json.Marshal(s)
	if err != nil {
		// Spec contains only marshalable types; this is unreachable.
		panic(fmt.Sprintf("schema: marshaling spec %s: %v", s.Name, err))
	}
	return b
}

// Fingerprint returns the spec's content-addressed id: "sch_" plus the
// first 8 bytes of the SHA-256 of its canonical JSON form. Two specs
// with the same declarative content — regardless of how they were
// built or formatted — share an id.
func (s *Spec) Fingerprint() string {
	return fingerprintOf(s.canonicalJSON())
}

// fingerprintOf is the content-addressed id of a canonical JSON form.
func fingerprintOf(canon []byte) string {
	sum := sha256.Sum256(canon)
	return "sch_" + hex.EncodeToString(sum[:8])
}
