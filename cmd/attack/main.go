// Command attack anonymizes a synthetic Adult table under a chosen
// privacy model and simulates probabilistic background-knowledge
// attacks by adversaries Adv(b') across a bandwidth sweep, reporting
// prior sharpness, risk quantiles, and vulnerable-tuple counts. A model
// no release satisfies (e.g. -k above the table size) exits 1 with an
// error wrapping privacy.ErrUnsatisfiable.
//
// Usage:
//
//	attack [-n N] [-seed S] [-model distinct|prob|tclose|bt|skyline] [-k K] [-l L] [-t T] [-b B] [-workers W]
package main

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/adult"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/parallel"
)

func main() {
	n := cli.N(5000, "table size")
	seed := cli.Seed()
	model := cli.ModelFlags("distinct", "distinct|prob|tclose|bt|skyline")
	workers := cli.Workers()
	flag.Parse()

	m, ok := core.ParseModel(*model.Name)
	if !ok {
		cli.Fatal("attack", fmt.Errorf("unknown model %q", *model.Name))
	}

	table := adult.Generate(*n, *seed)
	eng, err := core.New(table, adult.Hierarchies(), nil, nil,
		core.WithWorkers(parallel.Resolve(*workers)))
	if err != nil {
		cli.Fatal("attack", err)
	}
	params := model.Params()
	res, _, err := eng.RunAlgorithm("mondrian", m.Key(), params)
	if err != nil {
		cli.Fatal("attack", err)
	}
	fmt.Printf("release: %s via %s, %d groups over %d records (avg size %.1f)\n",
		res.Requirement, res.Algorithm, len(res.Groups), table.N(),
		float64(table.N())/float64(len(res.Groups)))

	judge := eng.BreachTest(m, params)
	fmt.Printf("%-6s %-10s %-10s %-10s %-10s %-10s\n",
		"b'", "maxPrior", "meanRisk", "p90Risk", "worstRisk", "vulnerable")
	for _, bp := range []float64{0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5} {
		bvec := kernel.UniformBandwidth(table.Schema.D(), bp)
		priors, err := eng.Priors(bvec)
		if err != nil {
			cli.Fatal("attack", err)
		}
		sharp := 0.0
		for _, p := range priors {
			mx, _ := p.Max()
			sharp += mx
		}
		sharp /= float64(len(priors))
		rep, err := eng.AttackWith(context.Background(), nil, res, bvec, params.T, judge)
		if err != nil {
			cli.Fatal("attack", err)
		}
		prof := core.Profile(rep.Risks)
		fmt.Printf("%-6.2f %-10.4f %-10.4f %-10.4f %-10.4f %-10d\n",
			bp, sharp, prof.Mean, prof.P90, rep.WorstRisk, rep.Vulnerable)
	}
}
