package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// streamSpecs is a small mixed-kind schema for the streaming tests.
var streamSpecs = []ColumnSpec{
	{Name: "Age", Kind: Numeric},
	{Name: "City", Kind: Categorical},
	{Name: "Disease", Kind: Categorical, Sensitive: true},
}

// TestReadCSVStreamingDomains checks the single-pass decode: numeric
// domains sort and dedup, categorical domains preserve observation
// order, and records index the finalized domains correctly even when
// the sorted numeric order differs from the observed order.
func TestReadCSVStreamingDomains(t *testing.T) {
	in := "Age,City,Disease\n" +
		"40,B,Flu\n" +
		"20,A,Cold\n" +
		"40,A,Flu\n" +
		"30,C,Cancer\n"
	tab, err := ReadCSV(strings.NewReader(in), streamSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if tab.N() != 4 {
		t.Fatalf("N = %d, want 4", tab.N())
	}
	age := tab.Schema.QI[0]
	if got, want := strings.Join(age.Values, ","), "20,30,40"; got != want {
		t.Fatalf("numeric domain %q, want %q (sorted, deduped)", got, want)
	}
	city := tab.Schema.QI[1]
	if got, want := strings.Join(city.Values, ","), "B,A,C"; got != want {
		t.Fatalf("categorical domain %q, want %q (observation order)", got, want)
	}
	// Row 0: Age 40 must remap to sorted index 2 although observed first.
	if got := tab.Records[0].QI[0]; got != 2 {
		t.Fatalf("record 0 Age index %d, want 2", got)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteCSVReproducesInput checks that writing a decoded table
// reproduces the uploaded bytes — rows in input order, each value
// rendered from its remapped domain index — and round-trips through
// ReadCSV.
func TestWriteCSVReproducesInput(t *testing.T) {
	in := "Age,City,Disease\n" +
		"40,B,Flu\n20,A,Cold\n40,A,Flu\n30,C,Cancer\n25,B,Cold\n22,C,Flu\n"
	tab, err := ReadCSV(strings.NewReader(in), streamSpecs)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WriteCSV(&out, tab); err != nil {
		t.Fatal(err)
	}
	if out.String() != in {
		t.Fatalf("WriteCSV output differs from its input:\n got %q\nwant %q", out.String(), in)
	}
	back, err := ReadCSV(&out, streamSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != tab.N() {
		t.Fatalf("round trip N = %d, want %d", back.N(), tab.N())
	}
}
