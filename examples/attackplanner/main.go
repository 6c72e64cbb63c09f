// Attack planner: how much must a colluding adversary spend to defeat the
// sampling service, and does the theory hold in practice?
//
// The paper's Section V shows the adversary's only lever against the
// knowledge-free strategy is corrupting the Count-Min estimates, which
// requires minting distinct certified identifiers: L_{k,s} of them to bias
// one victim id, E_k to bias everyone. Both grow linearly with the sketch
// width k — so a correct node buys safety with memory. This example prints
// the effort table for several sketch shapes, verifies the thresholds
// empirically against freshly drawn hash families, and closes with a small
// attack table: the knowledge-free sampler against the four attack models,
// scored with the windowed KL divergence and G_KL gain.
//
//	go run ./examples/attackplanner
package main

import (
	"fmt"
	"os"

	"nodesampling/internal/adversary"
	"nodesampling/internal/rng"
	"nodesampling/internal/urn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "attackplanner:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("=== adversary effort against the knowledge-free sampler ===")
	fmt.Println("(distinct certified identifiers the adversary must create)")
	fmt.Println()
	fmt.Printf("%6s %4s %10s %14s %14s %12s\n", "k", "s", "eta", "targeted L", "flooding E", "sketch mem")
	shapes := []struct {
		k, s int
		eta  float64
	}{
		{10, 5, 1e-1}, {10, 5, 1e-4},
		{50, 10, 1e-1}, {50, 10, 1e-4},
		{250, 10, 1e-4},
	}
	for _, sh := range shapes {
		plan, err := adversary.NewPlan(sh.k, sh.s, sh.eta)
		if err != nil {
			return err
		}
		fmt.Printf("%6d %4d %10.0e %14d %14d %10d B\n",
			plan.K, plan.S, plan.Eta, plan.TargetedIDs, plan.FloodingIDs, plan.SketchBytes)
	}

	fmt.Println()
	fmt.Println("key property: doubling k roughly doubles the adversary's cost, at 8*s bytes per column.")
	fmt.Println()

	// Empirical verification for one operating point.
	const k, s, eta = 10, 5, 0.1
	L, err := urn.TargetedEffort(k, s, eta)
	if err != nil {
		return err
	}
	r := rng.New(99)
	fmt.Printf("empirical check at k=%d, s=%d, eta=%.1f (3000 hash-family draws):\n", k, s, eta)
	for _, decoys := range []int{L / 4, L / 2, L, 2 * L} {
		p, err := adversary.EmpiricalTargetedSuccess(k, s, decoys, 3000, r)
		if err != nil {
			return err
		}
		marker := ""
		if decoys == L {
			marker = fmt.Sprintf("  <- L_{k,s}, theory promises > %.1f", 1-eta)
		}
		fmt.Printf("  %4d distinct ids -> targeted attack succeeds with prob %.3f%s\n", decoys, p, marker)
	}

	// A small attack table: how much of each attack's bias does the
	// sampler strip at this sketch shape?
	fmt.Println()
	fmt.Println("=== attack table: the knowledge-free sampler against four attacks ===")
	res, err := adversary.RunTournament(adversary.TournamentConfig{
		Population: 128, Capacity: 16, K: k, S: s,
		Ids: 16384, Window: 2048, Seed: 99,
	})
	if err != nil {
		return err
	}
	return res.WriteTable(os.Stdout)
}
