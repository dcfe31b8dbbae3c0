package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ColumnSpec declares how to interpret one CSV column when loading a
// table. Exactly one column must have Sensitive set.
type ColumnSpec struct {
	Name      string
	Kind      Kind
	Sensitive bool
}

// csvColumn accumulates one column's streaming decode state: the
// domain discovered so far plus the per-row values in compact form
// (floats for numeric, observation-order indexes for categorical), so
// no raw row text is retained while the reader drains.
type csvColumn struct {
	nums []float64 // numeric: parsed value per kept row

	seen map[string]int // categorical: value -> observation index
	vals []string       // categorical: domain in observation order
	idx  []int          // categorical: observation index per kept row
}

// ReadCSV loads a microdata table from CSV, streaming row by row: the
// reader is drained in a single pass and only the growing domains and
// a compact per-row encoding are retained, so arbitrarily large
// uploads cost O(rows) small integers rather than O(rows) strings.
// The first CSV row must be a header naming every column in specs
// (extra CSV columns are ignored). Rows containing the missing-value
// marker "?" (or an empty cell) are dropped, mirroring the paper's
// removal of Adult tuples with missing values. Attribute domains are
// built from the values observed in the data.
func ReadCSV(r io.Reader, specs []ColumnSpec) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true // stream: row buffers are not retained
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	colAt := make([]int, len(specs))
	for si, spec := range specs {
		colAt[si] = -1
		for ci, h := range header {
			if h == spec.Name {
				colAt[si] = ci
				break
			}
		}
		if colAt[si] < 0 {
			return nil, fmt.Errorf("dataset: column %q not found in CSV header", spec.Name)
		}
	}

	cols := make([]csvColumn, len(specs))
	for si, spec := range specs {
		if spec.Kind == Categorical {
			cols[si].seen = map[string]int{}
		}
	}
	rows := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		missing := false
		for si := range specs {
			if v := rec[colAt[si]]; v == "?" || v == "" {
				missing = true
				break
			}
		}
		if missing {
			continue
		}
		for si, spec := range specs {
			v := rec[colAt[si]]
			c := &cols[si]
			if spec.Kind == Numeric {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: column %s value %q is not numeric: %w", spec.Name, v, err)
				}
				// NaN would corrupt the sorted domain and, being
				// unequal to itself, could never be remapped to its
				// domain index below — reject it outright.
				if math.IsNaN(f) {
					return nil, fmt.Errorf("dataset: column %s value %q is NaN", spec.Name, v)
				}
				c.nums = append(c.nums, f)
				continue
			}
			oi, ok := c.seen[v]
			if !ok {
				oi = len(c.vals)
				// Clone: with ReuseRecord the field aliases the
				// reader's buffer, which the next Read overwrites.
				v = strings.Clone(v)
				c.seen[v] = oi
				c.vals = append(c.vals, v)
			}
			c.idx = append(c.idx, oi)
		}
		rows++
	}

	// Finalize domains. Categorical domains preserve observation order,
	// so the streamed observation index is already the domain index;
	// numeric domains sort and dedup, so per-row values are remapped.
	attrs := make([]*Attribute, len(specs))
	numIdx := make([]map[float64]int, len(specs))
	for si, spec := range specs {
		if spec.Kind == Numeric {
			attrs[si] = NewNumeric(spec.Name, cols[si].nums)
			m := make(map[float64]int, len(attrs[si].Nums))
			for i, v := range attrs[si].Nums {
				m[v] = i
			}
			numIdx[si] = m
		} else {
			attrs[si] = NewCategorical(spec.Name, cols[si].vals)
		}
	}

	schema := &Schema{}
	sensAt := -1
	for si, spec := range specs {
		if spec.Sensitive {
			if sensAt >= 0 {
				return nil, fmt.Errorf("dataset: multiple sensitive columns (%s and %s)", specs[sensAt].Name, spec.Name)
			}
			sensAt = si
			schema.Sensitive = attrs[si]
		} else {
			schema.QI = append(schema.QI, attrs[si])
		}
	}
	if sensAt < 0 {
		return nil, fmt.Errorf("dataset: no sensitive column declared")
	}

	t := &Table{Schema: schema, Records: make([]Record, rows)}
	for ri := 0; ri < rows; ri++ {
		rec := Record{QI: make([]int, 0, len(specs)-1)}
		for si, spec := range specs {
			var idx int
			if spec.Kind == Numeric {
				idx = numIdx[si][cols[si].nums[ri]]
			} else {
				idx = cols[si].idx[ri]
			}
			if si == sensAt {
				rec.S = idx
			} else {
				rec.QI = append(rec.QI, idx)
			}
		}
		t.Records[ri] = rec
	}
	return t, nil
}

// WriteCSV writes the table in the same column order as the schema:
// QI attributes then the sensitive attribute. One reused row buffer, no
// per-row allocation.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	header := append(t.Schema.QINames(), t.Schema.Sensitive.Name)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	row := make([]string, len(header))
	for _, r := range t.Records {
		for i, v := range r.QI {
			row[i] = t.Schema.QI[i].Value(v)
		}
		row[len(row)-1] = t.Schema.Sensitive.Value(r.S)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
