// Command anonymize reads a microdata CSV (or generates a synthetic
// Adult table), anonymizes it under a chosen privacy model with the
// Mondrian algorithm, and writes the generalized table.
//
// Usage:
//
//	anonymize [-in data.csv] [-n N] [-seed S]
//	          [-model distinct|prob|tclose|bt|skyline]
//	          [-k K] [-l L] [-t T] [-b B] [-stats] [-workers W]
//
// Without -in, a synthetic Adult table of size N is generated; the CSV
// schema is then fixed to the Adult schema (Age numeric; Workclass,
// Education, Marital-status, Race, Sex categorical; Occupation
// sensitive).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/adult"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/utility"
)

func main() {
	in := flag.String("in", "", "input CSV with Adult schema (default: synthesize)")
	n := cli.N(2000, "synthetic table size when -in is absent")
	seed := cli.Seed()
	model := cli.ModelFlags("bt", "distinct|prob|tclose|bt|skyline")
	stats := flag.Bool("stats", false, "print utility statistics instead of the table")
	workers := cli.Workers()
	flag.Parse()

	table, err := loadTable(*in, *n, *seed)
	if err != nil {
		cli.Fatal("anonymize", err)
	}

	engine, err := core.New(table, adult.Hierarchies(), nil, nil,
		core.WithWorkers(parallel.Resolve(*workers)))
	if err != nil {
		cli.Fatal("anonymize", err)
	}
	res, _, err := engine.RunAlgorithm("mondrian", *model.Name, model.Params())
	if err != nil {
		cli.Fatal("anonymize", err)
	}
	if *stats {
		fmt.Printf("algorithm:    %s\n", res.Algorithm)
		fmt.Printf("requirement:  %s\n", res.Requirement)
		fmt.Printf("records:      %d\n", table.N())
		fmt.Printf("groups:       %d\n", len(res.Groups))
		fmt.Printf("avg group:    %.2f\n", utility.AverageGroupSize(res))
		fmt.Printf("DM:           %.0f\n", utility.Discernibility(res))
		fmt.Printf("GCP:          %.2f (normalized %.4f)\n", utility.GCP(res), utility.GCPNormalized(res))
		return
	}
	fmt.Print(res.Render())
}

func loadTable(path string, n int, seed int64) (*dataset.Table, error) {
	if path == "" {
		return adult.Generate(n, seed), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f, adult.Specs())
}
