package experiments

import (
	"fmt"
	"math"

	"nodesampling/internal/core"
	"nodesampling/internal/gossip"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
	"nodesampling/internal/stream"
)

// AblationMinWise quantifies the staticity defect of the min-wise
// permutation baseline (Bortnikov et al. [6]) that the paper's introduction
// argues against: after convergence the min-wise sample never changes,
// violating Freshness, while the knowledge-free sampler keeps renewing its
// output.
func AblationMinWise(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	const n, c, k, s = 200, 10, 10, 5
	m := 100000
	if cfg.Quick {
		m = 20000
	}
	src, err := stream.NewCategorical(stream.ZipfPMF(n, 1), rng.New(cfg.Seed))
	if err != nil {
		return Table{}, fmt.Errorf("ablation-minwise: %w", err)
	}
	kf, err := core.NewKnowledgeFree(c, k, s, rng.New(rng.Mix64(cfg.Seed+1)))
	if err != nil {
		return Table{}, fmt.Errorf("ablation-minwise: %w", err)
	}
	mw, err := core.NewMinWiseSampler(rng.New(rng.Mix64(cfg.Seed + 2)))
	if err != nil {
		return Table{}, fmt.Errorf("ablation-minwise: %w", err)
	}
	// Count sample changes and distinct outputs over the second half of the
	// stream (after both samplers converged).
	half := m / 2
	kfLate := metrics.NewHistogram()
	mwLate := metrics.NewHistogram()
	var kfChanges, mwChanges int
	var prevKf, prevMw uint64
	for i := 0; i < m; i++ {
		id := src.Next()
		outKf := kf.Process(id)
		outMw := mw.Process(id)
		if i >= half {
			kfLate.Add(outKf)
			mwLate.Add(outMw)
			if outKf != prevKf {
				kfChanges++
			}
			if outMw != prevMw {
				mwChanges++
			}
		}
		prevKf, prevMw = outKf, outMw
	}
	t := Table{
		ID:    "ablation-minwise",
		Title: "Ablation: knowledge-free sampler vs min-wise baseline (freshness)",
		Columns: []string{
			"sampler", "distinct outputs (late half)", "sample changes (late half)", "memory (ids)",
		},
		Notes: "The min-wise baseline converges to a single static id (0 changes after convergence); " +
			"the knowledge-free sampler keeps cycling through the population, as Freshness requires.",
	}
	t.Rows = append(t.Rows, []string{
		"knowledge-free", fmtInt(kfLate.Distinct()), fmtInt(kfChanges), fmtInt(c),
	})
	t.Rows = append(t.Rows, []string{
		"min-wise [6]", fmtInt(mwLate.Distinct()), fmtInt(mwChanges), "1",
	})
	return t, nil
}

// AblationEvict demonstrates why Theorem 4 needs constant removal weights
// r_j: frequency-dependent eviction policies break the uniform stationary
// occupancy and lower the gain.
func AblationEvict(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	const n, c = 100, 10
	m := 200000
	if cfg.Quick {
		m = 20000
	}
	pmfRaw := stream.ZipfPMF(n, 2)
	pmf := normalise(pmfRaw)
	policies := []struct {
		name   string
		option []core.Option
	}{
		{"uniform eviction (paper)", nil},
		{"evict-frequent (r_j ∝ p_j)", []core.Option{core.WithEviction(
			core.WeightedEviction{Weight: func(id uint64) float64 { return pmf[id] }})}},
		{"evict-rare (r_j ∝ 1/p_j)", []core.Option{core.WithEviction(
			core.WeightedEviction{Weight: func(id uint64) float64 { return 1 / pmf[id] }})}},
	}
	t := Table{
		ID:      "ablation-evict",
		Title:   "Ablation: eviction families r_j in the omniscient strategy (Zipf alpha=2 input)",
		Columns: []string{"eviction policy", "D(output||U)", "G_KL"},
		Notes: "Theorem 4 requires constant r_j for uniformity; non-constant families skew the " +
			"stationary occupancy towards the ids they protect.",
	}
	for _, pol := range policies {
		src, err := stream.NewCategorical(pmfRaw, rng.New(cfg.Seed))
		if err != nil {
			return Table{}, fmt.Errorf("ablation-evict: %w", err)
		}
		om, err := core.NewOmniscient(c, src, rng.New(rng.Mix64(cfg.Seed+7)), pol.option...)
		if err != nil {
			return Table{}, fmt.Errorf("ablation-evict: %w", err)
		}
		input := metrics.NewHistogram()
		output := metrics.NewHistogram()
		for i := 0; i < m; i++ {
			id := src.Next()
			input.Add(id)
			output.Add(om.Process(id))
		}
		dout, err := output.KLvsUniform(n)
		if err != nil {
			return Table{}, fmt.Errorf("ablation-evict: %w", err)
		}
		din, err := input.KLvsUniform(n)
		if err != nil {
			return Table{}, fmt.Errorf("ablation-evict: %w", err)
		}
		t.Rows = append(t.Rows, []string{pol.name, fmtF(dout), fmtF(gain(din, dout))})
	}
	return t, nil
}

// AblationCU sweeps the sketch width k on the Figure 7b workload for the
// plain Count-Min update versus the conservative update (CM-CU), reporting
// by how much each divides the malicious band's over-representation. It
// quantifies two facts: the defence strengthens roughly linearly in k (the
// Section V prediction seen from the defender's side), and at the paper's
// printed k=10 the plain-CMS estimates are collision-dominated, which is
// why our faithful reproduction divides the band by ~1.2 rather than the
// paper's reported ~3 (reached here from k≈100).
func AblationCU(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	const n, c, s = 1000, 10, 5
	m := 100000
	ks := []int{10, 25, 50, 100}
	if cfg.Quick {
		m = 20000
		ks = []int{10, 50}
	}
	pmf, err := poissonAttackPMF(n)
	if err != nil {
		return Table{}, fmt.Errorf("ablation-cu: %w", err)
	}
	norm := normalise(pmf)
	attacked := make(map[uint64]bool)
	for i, p := range norm {
		if p > 2.0/n {
			attacked[uint64(i)] = true
		}
	}
	bandRatio := func(h *metrics.Histogram) float64 {
		var bandSum, corSum, nb, nc float64
		for i := uint64(0); i < n; i++ {
			if attacked[i] {
				bandSum += float64(h.Count(i))
				nb++
			} else {
				corSum += float64(h.Count(i))
				nc++
			}
		}
		if corSum == 0 {
			return 0
		}
		return (bandSum / nb) / (corSum / nc)
	}
	t := Table{
		ID:    "ablation-cu",
		Title: "Ablation: plain Count-Min vs conservative update, k sweep (Figure 7b workload)",
		Columns: []string{
			"k", "update", "band ratio in", "band ratio out", "division", "G_KL",
		},
		Notes: "Settings m=100000, n=1000, c=10, s=5. 'Division' is how much the sampler shrinks " +
			"the malicious band's over-representation; the paper reports ~3 at k=10, which this " +
			"faithful implementation reaches only at k≈100.",
	}
	for _, k := range ks {
		for _, cu := range []bool{false, true} {
			src, err := stream.NewCategorical(pmf, rng.New(cfg.Seed))
			if err != nil {
				return Table{}, fmt.Errorf("ablation-cu: %w", err)
			}
			var opts []core.Option
			name := "plain"
			if cu {
				opts = append(opts, core.WithConservativeUpdate())
				name = "conservative"
			}
			kf, err := core.NewKnowledgeFree(c, k, s, rng.New(rng.Mix64(cfg.Seed+uint64(k))), opts...)
			if err != nil {
				return Table{}, fmt.Errorf("ablation-cu: %w", err)
			}
			input := metrics.NewHistogram()
			output := metrics.NewHistogram()
			for i := 0; i < m; i++ {
				id := src.Next()
				input.Add(id)
				output.Add(kf.Process(id))
			}
			rIn, rOut := bandRatio(input), bandRatio(output)
			division := 0.0
			if rOut > 0 {
				division = rIn / rOut
			}
			din, err := input.KLvsUniform(n)
			if err != nil {
				return Table{}, fmt.Errorf("ablation-cu: %w", err)
			}
			dout, err := output.KLvsUniform(n)
			if err != nil {
				return Table{}, fmt.Errorf("ablation-cu: %w", err)
			}
			t.Rows = append(t.Rows, []string{
				fmtInt(k), name, fmtF(rIn), fmtF(rOut), fmtF(division), fmtF(gain(din, dout)),
			})
		}
	}
	return t, nil
}

// AblationChurn relaxes the paper's churn-stops-at-T0 assumption with the
// adversarially hard variant: halfway through the stream the population is
// replaced AND the new population is under a peak attack. The plain
// knowledge-free sampler is slow to defend: its stale counters keep minσ at
// the old regime's level, so the new attacker enjoys admission probability
// ≈ 1 until its own estimate climbs past that stale floor. Periodic sketch
// halving (WithPeriodicHalving) decays the stale state and restores the
// defence promptly.
func AblationChurn(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	const n, c, k, s = 500, 25, 10, 5
	m := 200000
	if cfg.Quick {
		// Long enough that the halving-vs-plain excess-divergence gap (a
		// difference of two small KL estimates) stands clear of single-run
		// noise; 40k was borderline and flipped on hash-family realisation.
		m = 100000
	}
	half := m / 2
	attacked := uint64(n) // the new population's attacked id
	variants := []struct {
		name string
		opts []core.Option
	}{
		{"plain (paper)", nil},
		{"halving every m/40", []core.Option{core.WithPeriodicHalving(uint64(m / 40))}},
	}
	t := Table{
		ID:    "ablation-churn",
		Title: "Extension: population replaced at t=m/2 and attacked (churn after T0), with/without sketch decay",
		Columns: []string{
			"sampler", "attacked-id share of final-quarter output", "excess D(final quarter||U_new)",
		},
		Notes: "First half: uniform over ids 0..n-1. Second half: ids n..2n-1 with one id carrying " +
			"half the stream. A perfect sampler's final-quarter output is uniform over the new " +
			"population (attacked share 1/n = 0.002, excess divergence 0).",
	}
	newPMF, err := stream.PeakPMF(n, 0, float64(half), float64(half)/float64(n-1))
	if err != nil {
		return Table{}, fmt.Errorf("ablation-churn: %w", err)
	}
	for _, v := range variants {
		oldSrc, err := stream.NewCategorical(stream.UniformPMF(n), rng.New(cfg.Seed))
		if err != nil {
			return Table{}, fmt.Errorf("ablation-churn: %w", err)
		}
		newSrc, err := stream.NewCategorical(newPMF, rng.New(rng.Mix64(cfg.Seed+1)))
		if err != nil {
			return Table{}, fmt.Errorf("ablation-churn: %w", err)
		}
		kf, err := core.NewKnowledgeFree(c, k, s, rng.New(rng.Mix64(cfg.Seed+3)), v.opts...)
		if err != nil {
			return Table{}, fmt.Errorf("ablation-churn: %w", err)
		}
		lateOut := metrics.NewHistogram()
		for i := 0; i < m; i++ {
			var id uint64
			if i < half {
				id = oldSrc.Next()
			} else {
				id = newSrc.Next() + uint64(n) // the replaced, attacked population
			}
			out := kf.Process(id)
			if i >= m*3/4 {
				lateOut.Add(out)
			}
		}
		attackedShare := float64(lateOut.Count(attacked)) / float64(lateOut.Total())
		// Divergence of the final-quarter output measured over the full 2n
		// support: perfect adaptation (uniform over the n new ids) scores
		// exactly ln 2, so report the excess above that floor.
		dOut, err := lateOut.KLvsUniform(2 * n)
		if err != nil {
			return Table{}, fmt.Errorf("ablation-churn: %w", err)
		}
		t.Rows = append(t.Rows, []string{
			v.name, fmtF(attackedShare), fmtF(dOut - math.Log(2)),
		})
	}
	return t, nil
}

// Gossip runs the end-to-end overlay experiment: per-node knowledge-free
// samplers inside a push-gossip network under a Sybil flood, reporting the
// steady-state KL gain across correct nodes for increasing attack strength.
func Gossip(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	nodes, warm, measure := 120, 600, 900
	if cfg.Quick {
		nodes, warm, measure = 60, 150, 250
	}
	t := Table{
		ID:    "gossip",
		Title: "Extension: sampling service inside a simulated gossip overlay (10% malicious nodes)",
		Columns: []string{
			"burst", "sybil pressure", "mean G_KL", "min G_KL", "max G_KL", "coverage",
		},
		Notes: "Steady-state gains after warm-up; pressure is the fraction of received ids that are " +
			"sybil identifiers. Coverage counts distinct correct ids across all sampling memories.",
	}
	for _, burst := range []int{4, 12} {
		gcfg := gossip.Config{
			Nodes:             nodes,
			MaliciousFraction: 0.1,
			SybilIDs:          nodes / 2,
			Fanout:            3,
			ForwardBuffer:     16,
			Burst:             burst,
			Degree:            4,
			Seed:              cfg.Seed,
		}
		nw, err := gossip.NewNetwork(gcfg, func(_ int, r *rng.Xoshiro) (core.Sampler, error) {
			return core.NewKnowledgeFree(25, 8, 4, r)
		})
		if err != nil {
			return Table{}, fmt.Errorf("gossip: %w", err)
		}
		if err := nw.RunParallel(warm, cfg.Workers); err != nil {
			return Table{}, fmt.Errorf("gossip: %w", err)
		}
		nw.ResetStreamStats()
		if err := nw.RunParallel(measure, cfg.Workers); err != nil {
			return Table{}, fmt.Errorf("gossip: %w", err)
		}
		sum, err := nw.CorrectGains()
		if err != nil {
			return Table{}, fmt.Errorf("gossip: %w", err)
		}
		t.Rows = append(t.Rows, []string{
			fmtInt(burst), fmtF(nw.SybilPressure()),
			fmtF(sum.Mean), fmtF(sum.Min), fmtF(sum.Max),
			fmtInt(nw.SampleCoverage()),
		})
	}
	return t, nil
}

// tournament runs the knowledge-free sampler's attack table
// (RunTournament) at the tournament's reference point. Quick does
// not shrink it, so the table is always the one the nodesampling package
// documentation quotes.
func tournament(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	res, err := RunTournament(TournamentConfig{Seed: cfg.Seed})
	if err != nil {
		return Table{}, fmt.Errorf("tournament: %w", err)
	}
	c := res.Config
	t := Table{
		ID: "tournament",
		Title: fmt.Sprintf("Extension: knowledge-free sampler against four attack models "+
			"(population %d, c=%d, sketch %dx%d, %d ids in windows of %d, decay every %d)",
			c.Population, c.Capacity, c.K, c.S, c.Ids, c.Window, c.DecayEvery),
		Columns: []string{"attack", "D(input||U)", "D(output||U)", "G_KL", "windows"},
		Notes: "Mean over the scored windows (the first is a warm-up). " +
			"G_KL = 1 - D(output||U)/D(input||U): 1 removes all attack bias, 0 none, negative amplifies it.",
	}
	for _, cell := range res.Cells {
		t.Rows = append(t.Rows, []string{
			cell.Attack, fmtF(cell.InputKL), fmtF(cell.OutputKL), fmtF(cell.Gain), fmtInt(cell.Windows),
		})
	}
	return t, nil
}
