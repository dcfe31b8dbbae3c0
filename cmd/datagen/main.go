// Command datagen writes a synthetic microdata table as CSV: the
// built-in Adult-like dataset by default (see internal/adult and the
// substitution rationale in DESIGN.md), or any declarative dataset
// spec via -schema (see internal/schema and examples/schemas/).
//
// Usage:
//
//	datagen [-n N] [-seed S] [-schema spec.json] [-o out.csv]
//
// Generation draws every record from one seeded rng stream, and the CSV
// is written in one sequential pass, so the output is fixed by its
// flags.
package main

import (
	"flag"
	"os"

	"repro/internal/adult"
	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/schema"
)

func main() {
	n := cli.N(30000, "number of records")
	seed := cli.Seed()
	schemaPath := cli.Schema("JSON dataset spec to synthesize under (default: built-in Adult)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	spec := adult.Spec()
	if *schemaPath != "" {
		var err error
		if spec, err = schema.Load(*schemaPath); err != nil {
			cli.Fatal("datagen", err)
		}
	}
	table, err := schema.Synthesize(spec, *n, *seed)
	if err != nil {
		cli.Fatal("datagen", err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			cli.Fatal("datagen", err)
		}
		defer f.Close()
		w = f
	}
	if err := dataset.WriteCSV(w, table); err != nil {
		cli.Fatal("datagen", err)
	}
}
