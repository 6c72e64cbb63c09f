// Command unsattack computes the minimum adversarial effort against a
// knowledge-free sampler (Section V of the paper): how many distinct
// certified identifiers a colluding adversary must create to bias a single
// victim id (targeted attack, L_{k,s}) or every id (flooding attack, E_k)
// with a chosen success probability.
//
// Usage:
//
//	unsattack -k 50 -s 10 -eta 1e-4
//	unsattack -k 50 -s 10 -eta 0.1 -verify -trials 2000
//	unsattack -tournament
//	unsattack -tournament -json -population 512
//
// With -verify, the theoretical thresholds are checked empirically against
// freshly drawn 2-universal hash families. With -tournament, the
// knowledge-free sampler is run against the four adversarial input models —
// targeted flood, ballot stuffing, churn storm, slow trickle — and scored
// with the windowed KL divergence and G_KL gain, as a text table or JSON
// (-json). The tournament runs at its own reference point (16×4 sketch);
// -k and -s override it only when given explicitly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nodesampling/internal/adversary"
	"nodesampling/internal/rng"
	"nodesampling/internal/urn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "unsattack:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("unsattack", flag.ContinueOnError)
	var (
		k        = fs.Int("k", 50, "sketch columns (urns per row)")
		s        = fs.Int("s", 10, "sketch rows (independent hash functions)")
		eta      = fs.Float64("eta", 1e-4, "attack failure probability (success > 1-eta)")
		verify   = fs.Bool("verify", false, "empirically verify the thresholds")
		trials   = fs.Int("trials", 2000, "trials for -verify")
		seed     = fs.Uint64("seed", 1, "seed for -verify and -tournament")
		tourn    = fs.Bool("tournament", false, "run the knowledge-free sampler against the four attack models and print the score table")
		jsonOut  = fs.Bool("json", false, "emit the -tournament result as JSON instead of text")
		pop      = fs.Int("population", 0, "-tournament honest population size (0 uses the default)")
		ids      = fs.Int("ids", 0, "-tournament stream length per cell (0 uses the default)")
		window   = fs.Int("window", 0, "-tournament scoring window in ids (0 uses the default)")
		capacity = fs.Int("capacity", 0, "-tournament sampler memory size c (0 uses the default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tourn {
		cfg := adversary.TournamentConfig{
			Population: *pop, Ids: *ids, Window: *window,
			Capacity: *capacity, Seed: *seed,
		}
		// -k and -s default to the effort calculator's 50×10, at which the
		// tournament's 256-id population freezes Γ: pass them on only when
		// given, so the tournament otherwise runs at its own 16×4.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k":
				cfg.K = *k
			case "s":
				cfg.S = *s
			}
		})
		return runTournament(w, cfg, *jsonOut)
	}
	plan, err := adversary.NewPlan(*k, *s, *eta)
	if err != nil {
		return err
	}
	allRows, err := urn.FloodingEffortAllRows(*k, *s, *eta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sketch: k=%d columns x s=%d rows (%d bytes of counters)\n", plan.K, plan.S, plan.SketchBytes)
	fmt.Fprintf(w, "attack success probability target: > %v\n", 1-plan.Eta)
	fmt.Fprintf(w, "targeted attack (bias one victim id):   L_{k,s} = %d distinct ids\n", plan.TargetedIDs)
	fmt.Fprintf(w, "flooding attack (bias every id), paper: E_k     = %d distinct ids\n", plan.FloodingIDs)
	fmt.Fprintf(w, "flooding attack, exact all-rows bound:  E_{k,s} = %d distinct ids\n", allRows)
	fmt.Fprintf(w, "defender's lever: both efforts grow linearly with k and are independent of the system size.\n")
	if !*verify {
		return nil
	}
	r := rng.New(*seed)
	pT, err := adversary.EmpiricalTargetedSuccess(*k, *s, plan.TargetedIDs, *trials, r)
	if err != nil {
		return err
	}
	pF, err := adversary.EmpiricalFloodingSuccess(*k, *s, allRows, *trials, r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "empirical check (%d trials):\n", *trials)
	fmt.Fprintf(w, "  targeted success with %d ids: %.4f (want > %v)\n", plan.TargetedIDs, pT, 1-plan.Eta)
	fmt.Fprintf(w, "  flooding success with %d ids: %.4f (want > %v)\n", allRows, pF, 1-plan.Eta)
	return nil
}

// runTournament runs the knowledge-free sampler's attack table and writes
// it as text (or JSON).
func runTournament(w io.Writer, cfg adversary.TournamentConfig, jsonOut bool) error {
	res, err := adversary.RunTournament(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return res.WriteJSON(w)
	}
	c := res.Config
	fmt.Fprintf(w, "tournament: knowledge-free sampler, population %d, memory c=%d, sketch %dx%d, %d ids in windows of %d, decay every %d\n",
		c.Population, c.Capacity, c.K, c.S, c.Ids, c.Window, c.DecayEvery)
	fmt.Fprintf(w, "G_KL = 1 - D(output||U)/D(input||U): 1 removes all attack bias, 0 none, negative amplifies it.\n\n")
	return res.WriteTable(w)
}
