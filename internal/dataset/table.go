package dataset

import (
	"fmt"
)

// Schema is the column layout of a microdata table: d quasi-identifier
// attributes and a single sensitive attribute (§II-A). Multiple
// sensitive attributes are out of scope, as in the paper.
type Schema struct {
	QI        []*Attribute
	Sensitive *Attribute
}

// D returns the number of quasi-identifier attributes.
func (s *Schema) D() int { return len(s.QI) }

// M returns the cardinality of the sensitive domain.
func (s *Schema) M() int { return s.Sensitive.Size() }

// QINames returns the names of the QI attributes, in order.
func (s *Schema) QINames() []string {
	names := make([]string, len(s.QI))
	for i, a := range s.QI {
		names[i] = a.Name
	}
	return names
}

// Record is one individual's tuple: QI value indexes plus the sensitive
// value index. Records are small and copied by value.
type Record struct {
	QI []int
	S  int
}

// Table is a microdata table: a schema plus its records.
type Table struct {
	Schema  *Schema
	Records []Record
}

// N returns the number of records.
func (t *Table) N() int { return len(t.Records) }

// Validate checks that every record is within the schema's domains.
func (t *Table) Validate() error {
	d := t.Schema.D()
	for ri, r := range t.Records {
		if len(r.QI) != d {
			return fmt.Errorf("dataset: record %d has %d QI values, schema has %d", ri, len(r.QI), d)
		}
		for ai, v := range r.QI {
			if v < 0 || v >= t.Schema.QI[ai].Size() {
				return fmt.Errorf("dataset: record %d attribute %s index %d out of domain [0,%d)",
					ri, t.Schema.QI[ai].Name, v, t.Schema.QI[ai].Size())
			}
		}
		if r.S < 0 || r.S >= t.Schema.M() {
			return fmt.Errorf("dataset: record %d sensitive index %d out of domain [0,%d)", ri, r.S, t.Schema.M())
		}
	}
	return nil
}

// SensitiveCounts returns the histogram of the sensitive attribute over
// the given record indexes (all records when rows is nil).
func (t *Table) SensitiveCounts(rows []int) []int {
	counts := make([]int, t.Schema.M())
	t.CountSensitive(counts, rows)
	return counts
}

// CountSensitive adds the sensitive histogram of the given record
// indexes (all records when rows is nil) into counts, which has
// Schema.M() elements — SensitiveCounts into caller memory.
func (t *Table) CountSensitive(counts []int, rows []int) {
	if rows == nil {
		for _, r := range t.Records {
			counts[r.S]++
		}
		return
	}
	for _, i := range rows {
		counts[t.Records[i].S]++
	}
}

// Profile is a distinct QI combination with the sensitive histogram of
// the records sharing it. Kernel estimation runs over profiles rather
// than records: tables like Adult have heavy QI duplication, and the
// prior belief function Ppri is a function of the QI value alone.
type Profile struct {
	QI     []int
	Counts []int // sensitive histogram among records with this QI value
	Rows   []int // record indexes with this QI value
}

// Weight returns the number of records sharing the profile.
func (p *Profile) Weight() int { return len(p.Rows) }

// Profiles groups the table's records by identical QI value. The order
// of profiles follows first appearance, so it is deterministic.
func (t *Table) Profiles() []*Profile {
	index := make(map[string]int)
	var out []*Profile
	key := make([]byte, 0, 4*t.Schema.D())
	for ri, r := range t.Records {
		key = key[:0]
		for _, v := range r.QI {
			key = appendVarint(key, v)
		}
		k := string(key)
		pi, ok := index[k]
		if !ok {
			pi = len(out)
			index[k] = pi
			qi := make([]int, len(r.QI))
			copy(qi, r.QI)
			out = append(out, &Profile{QI: qi, Counts: make([]int, t.Schema.M())})
		}
		out[pi].Counts[r.S]++
		out[pi].Rows = append(out[pi].Rows, ri)
	}
	return out
}

func appendVarint(b []byte, v int) []byte {
	u := uint(v)
	for u >= 0x80 {
		b = append(b, byte(u)|0x80)
		u >>= 7
	}
	return append(b, byte(u))
}
