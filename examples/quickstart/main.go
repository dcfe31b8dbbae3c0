// Quickstart: generate a table, model an adversary with kernel-estimated
// background knowledge, anonymize under (B,t)-privacy, and verify the
// release holds against the modeled adversary.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/adult"
	"repro/internal/core"
	"repro/internal/kernel"
)

func main() {
	// 1. A microdata table: 2000 census-like records, sensitive
	//    attribute Occupation (see internal/adult for the schema).
	table := adult.Generate(2000, 42)
	fmt.Printf("table: %d records, %d QI attributes, sensitive %q (%d values)\n",
		table.N(), table.Schema.D(), table.Schema.Sensitive.Name, table.Schema.M())

	// 2. The engine wires the paper's framework together: kernel prior
	//    estimation, Ω-estimate posterior inference, and the
	//    kernel-smoothed JS disclosure measure.
	engine, err := core.New(table, adult.Hierarchies(), nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Anonymize under (B,t)-privacy composed with k-anonymity:
	//    against the adversary Adv(B = 0.3,…,0.3), no tuple's belief
	//    may move more than t = 0.25.
	params := core.Params{K: 3, L: 3, T: 0.25, B: 0.3}
	release, _, err := engine.RunAlgorithm("mondrian", "bt", params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("release: %d groups under %s\n", len(release.Groups), release.Requirement)

	// 4. Attack the release with the modeled adversary: by
	//    construction, zero vulnerable tuples.
	bvec := kernel.UniformBandwidth(table.Schema.D(), params.B)
	report, err := engine.AttackWith(context.Background(), nil, release, bvec, params.T, engine.BreachTest(core.BTPrivacy, params))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack by Adv(B=0.3): vulnerable=%d worst-case risk=%.4f (t=%.2f)\n",
		report.Vulnerable, report.WorstRisk, params.T)

	// 5. A more knowledgeable adversary than the release was built for
	//    can still learn more — quantify it.
	sharp := kernel.UniformBandwidth(table.Schema.D(), 0.2)
	report2, err := engine.AttackWith(context.Background(), nil, release, sharp, params.T, engine.BreachTest(core.BTPrivacy, params))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack by Adv(B=0.2): vulnerable=%d worst-case risk=%.4f\n",
		report2.Vulnerable, report2.WorstRisk)
}
