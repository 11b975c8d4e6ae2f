package mobisense_test

import (
	"context"
	"fmt"
	"log"

	"mobisense"
)

// The README's library snippets, kept as compile-only examples: they have
// no Output comment, so go test builds them without running their sweeps,
// and a signature change they depend on fails the build. Keep each in
// step with its README block.

// Example_batchSweep is the README's "Batch sweeps" snippet.
func Example_batchSweep() {
	sweep := mobisense.Sweep{
		Base:      mobisense.DefaultConfig(mobisense.SchemeFLOOR),
		Schemes:   []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR},
		Scenarios: []string{"free", "random-obstacles"},
		Ns:        []int{120, 240},
		Repeats:   30,
		Seed:      1,
	}
	sr, err := sweep.Run(context.Background(), mobisense.BatchOptions{}) // Workers: 0 → GOMAXPROCS
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range sr.Aggregates {
		fmt.Printf("%s/%s N=%d: coverage %.3f ± %.3f\n",
			a.Scheme, a.Scenario, a.N, a.Coverage.Mean, a.Coverage.CI95)
	}
}

// Example_parameterAxes is the README's "Generalized parameter axes"
// snippet.
func Example_parameterAxes() {
	sweep := mobisense.Sweep{
		Base:    mobisense.DefaultConfig(mobisense.SchemeFLOOR),
		Schemes: []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR},
		Axes: []mobisense.ParamAxis{
			mobisense.AxisRc(30, 45, 60),
			mobisense.AxisSpeed(1, 2),
		},
		Repeats: 10,
		Seed:    1,
	}
	_ = sweep
}
