// Cliquebench regenerates the quantitative content of every theorem and
// claim of "On the Power of the Congested Clique Model" (Drucker, Kuhn,
// Oshman; PODC 2014). Run all experiments (E1–E17 plus the EA1 ablations) or a single one:
//
//	cliquebench             # everything, full parameters
//	cliquebench -exp E7     # one experiment
//	cliquebench -quick      # reduced parameter sweeps
//	cliquebench -list       # show the experiment index
//	cliquebench -scenarios  # the scenario matrix (internal/scenario)
//
// See EXPERIMENTS.md for the paper-vs-measured record. With -scenarios
// the experiments are skipped and the differential workload matrix runs
// instead (same engine as cmd/scenariorun; -seed and -shards apply),
// writing SCENARIOS_<date>.json and failing on any oracle/engine
// divergence.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/scenario"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment ID to run (E1..E17, EA1) or 'all'")
		quick     = flag.Bool("quick", false, "reduced parameter sweeps")
		list      = flag.Bool("list", false, "list experiments and exit")
		par       = flag.Int("parallelism", 0, "engine workers per round: 0 = GOMAXPROCS, 1 = sequential")
		batch     = flag.Bool("batch", false, "use the 64-lane bitsliced engine for local reference evaluation")
		scenarios = flag.Bool("scenarios", false, "run the scenario matrix instead of the experiments")
		seed      = flag.Int64("seed", 1, "base seed of the scenario matrix (-scenarios)")
		shards    = flag.Int("shards", 0, "scenario worker-pool shards: 0 = GOMAXPROCS (-scenarios)")
		families  = flag.String("families", "", "scenario family subset, comma-separated (-scenarios)")
		protocols = flag.String("protocols", "", "scenario protocol subset, comma-separated (-scenarios)")
		engines   = flag.String("engines", "", "scenario engine-config subset, comma-separated (-scenarios)")
		faults    = flag.String("faults", "", `fault spec for the scenario engine legs, e.g. "drop=0.02" (-scenarios; DESIGN.md §11)`)
	)
	flag.Parse()
	env := core.Env{Parallelism: *par}
	experiments.SetBatchEval(*batch)

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-5s %s\n", e.ID, e.Claim)
		}
		return
	}
	if *scenarios {
		runScenarios(*quick, *seed, *shards, *families, *protocols, *engines, *faults)
		return
	}
	if *exp != "all" {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(1)
		}
		run(e, *quick, env)
		return
	}
	for _, e := range experiments.All {
		run(e, *quick, env)
	}
}

func run(e experiments.Experiment, quick bool, env core.Env) {
	if err := e.Run(os.Stdout, quick, env); err != nil {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
		os.Exit(1)
	}
}

// runScenarios sweeps the differential workload matrix — optionally
// restricted to family/protocol/engine subsets — and writes
// SCENARIOS_<date>.json (DESIGN.md §8).
func runScenarios(quick bool, seed int64, shards int, families, protocols, engines, faults string) {
	m := scenario.DefaultMatrix(quick, seed)
	for _, filter := range []struct {
		names string
		apply func(string) error
	}{
		{families, m.FilterFamilies},
		{protocols, m.FilterProtocols},
		{engines, m.FilterEngines},
	} {
		if err := filter.apply(filter.names); err != nil {
			fmt.Fprintf(os.Stderr, "%v; use scenariorun -list\n", err)
			os.Exit(2)
		}
	}
	spec, err := fault.ParseSpec(faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	rep, err := scenario.RunMatrixOpts(m, scenario.RunOptions{Shards: shards, Faults: spec})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(4)
	}
	if code := rep.WriteAndReport("", os.Stdout, os.Stderr); code != 0 {
		os.Exit(code)
	}
}
