package experiments

import (
	"fmt"

	"nodesampling/internal/adversary"
	"nodesampling/internal/core"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
	"nodesampling/internal/stream"
)

// TournamentConfig parameterises the knowledge-free sampler's attack table.
// The zero value is usable: SetDefaults fills every unset field with the
// reference operating point (population 256, memory 32, 16×4 sketch, ten
// windows of 4096 ids, decay every 512).
type TournamentConfig struct {
	Population int    // honest population size n (ids 0 … n−1)
	Capacity   int    // sampler memory size c
	K, S       int    // sketch shape
	Ids        int    // stream length fed to each cell
	Window     int    // scoring window, in ids
	DecayEvery uint64 // periodic decay (0 disables)
	Seed       uint64 // root seed; every cell derives its own
}

// SetDefaults fills unset fields with the reference operating point.
func (c *TournamentConfig) SetDefaults() {
	if c.Population == 0 {
		c.Population = 256
	}
	if c.Capacity == 0 {
		c.Capacity = 32
	}
	if c.K == 0 {
		c.K = 16
	}
	if c.S == 0 {
		c.S = 4
	}
	if c.Ids == 0 {
		c.Ids = 40960
	}
	if c.Window == 0 {
		c.Window = 4096
	}
	if c.DecayEvery == 0 {
		c.DecayEvery = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c TournamentConfig) validate() error {
	if c.Population < 16 {
		return fmt.Errorf("tournament population %d too small (need ≥ 16)", c.Population)
	}
	if c.Capacity < 1 {
		return fmt.Errorf("tournament capacity %d invalid", c.Capacity)
	}
	if c.Window < 1 || c.Ids < 2*c.Window {
		return fmt.Errorf("tournament needs at least two windows (ids=%d window=%d)", c.Ids, c.Window)
	}
	return nil
}

// Cell is one attack's outcome: the mean windowed KL divergence of the
// input and output streams against uniform over the attack's id support,
// and the paper's G_KL robustness gain (1 = the sampler removed all of the
// attack's bias, 0 = none, negative = it amplified it). The first window is
// a warm-up and is not scored.
type Cell struct {
	Attack   string
	InputKL  float64
	OutputKL float64
	Gain     float64
	Windows  int
}

// TournamentResult is the full attack table.
type TournamentResult struct {
	Config  TournamentConfig
	Attacks []string
	Cells   []Cell
}

// idSource is the minimal stream interface the tournament consumes.
type idSource interface{ Next() uint64 }

// tournamentAttack names one adversarial input model and how to build it.
type tournamentAttack struct {
	name string
	// support is the number of distinct ids the attack may ever emit (the
	// KL reference measure is uniform over it).
	support func(c TournamentConfig) int
	source  func(c TournamentConfig, r *rng.Xoshiro) (idSource, error)
}

// churnBlock sizes a churn-storm sybil generation: population/16 fresh ids
// per window.
func churnBlock(c TournamentConfig) int { return max(1, c.Population/16) }

func churnWindows(c TournamentConfig) int { return (c.Ids + c.Window - 1) / c.Window }

// churnStorm emits a uniform honest stream in which half the ids are
// sybils from a block that is replaced every window — the adversary churns
// through fresh certified identifiers faster than any frequency estimate
// can converge on them.
type churnStorm struct {
	honest  *stream.Categorical
	r       *rng.Xoshiro
	n       int // honest population; sybils start at n
	block   int // fresh-ids-per-window
	window  int
	emitted int
}

func (s *churnStorm) Next() uint64 {
	gen := s.emitted / s.window
	s.emitted++
	if s.r.Bernoulli(0.5) {
		return uint64(s.n + gen*s.block + s.r.Intn(s.block))
	}
	return s.honest.Next()
}

// tournamentAttacks are the four representative input models: the paper's
// targeted flood (one victim id at half the stream), eclipse-style ballot
// stuffing (a small colluding block carries 80%), a churn storm of
// fresh-per-window sybils, and a slow trickle of mild persistent bias that
// a threshold detector would miss.
func tournamentAttacks() []tournamentAttack {
	honest := func(c TournamentConfig) int { return c.Population }
	categorical := func(pmf []float64, err error, r *rng.Xoshiro) (idSource, error) {
		if err != nil {
			return nil, err
		}
		return stream.NewCategorical(pmf, r)
	}
	return []tournamentAttack{
		{
			name:    "targeted-flood",
			support: honest,
			source: func(c TournamentConfig, r *rng.Xoshiro) (idSource, error) {
				pmf, err := adversary.Peak(stream.UniformPMF(c.Population), 0, 0.5)
				return categorical(pmf, err, r)
			},
		},
		{
			name:    "ballot-stuffing",
			support: honest,
			source: func(c TournamentConfig, r *rng.Xoshiro) (idSource, error) {
				pmf, err := adversary.OverRepresent(stream.UniformPMF(c.Population), adversary.FirstIDs(c.Population/16), 0.8)
				return categorical(pmf, err, r)
			},
		},
		{
			name: "churn-storm",
			support: func(c TournamentConfig) int {
				return c.Population + churnWindows(c)*churnBlock(c)
			},
			source: func(c TournamentConfig, r *rng.Xoshiro) (idSource, error) {
				honest, err := stream.NewCategorical(stream.UniformPMF(c.Population), r.Split())
				if err != nil {
					return nil, err
				}
				return &churnStorm{honest: honest, r: r, n: c.Population, block: churnBlock(c), window: c.Window}, nil
			},
		},
		{
			name:    "slow-trickle",
			support: honest,
			source: func(c TournamentConfig, r *rng.Xoshiro) (idSource, error) {
				pmf, err := adversary.OverRepresent(stream.UniformPMF(c.Population), adversary.FirstIDs(8), 0.15)
				return categorical(pmf, err, r)
			},
		},
	}
}

// AttackNames lists the tournament's attack models, in table order.
func AttackNames() []string {
	atks := tournamentAttacks()
	names := make([]string, len(atks))
	for i, a := range atks {
		names[i] = a.name
	}
	return names
}

// RunTournament runs the knowledge-free sampler against every attack model
// and scores each cell with the windowed KL divergence and G_KL gain of
// internal/metrics.
func RunTournament(cfg TournamentConfig) (*TournamentResult, error) {
	cfg.SetDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &TournamentResult{Config: cfg, Attacks: AttackNames()}
	for ai, atk := range tournamentAttacks() {
		cell, err := runCell(cfg, atk, cfg.Seed+uint64(ai)*0x9e37)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", atk.name, err)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// runCell streams cfg.Ids attack ids through one sampler and scores every
// window after the warm-up one.
func runCell(cfg TournamentConfig, atk tournamentAttack, seed uint64) (Cell, error) {
	var opts []core.Option
	if cfg.DecayEvery > 0 {
		opts = append(opts, core.WithPeriodicHalving(cfg.DecayEvery))
	}
	r := rng.New(seed)
	sampler, err := core.NewKnowledgeFree(cfg.Capacity, cfg.K, cfg.S, r.Split(), opts...)
	if err != nil {
		return Cell{}, err
	}
	src, err := atk.source(cfg, r.Split())
	if err != nil {
		return Cell{}, err
	}
	support := atk.support(cfg)
	in, out := metrics.NewHistogram(), metrics.NewHistogram()
	batch := make([]uint64, cfg.Window)
	emitted := make([]uint64, 0, cfg.Window)
	cell := Cell{Attack: atk.name}
	var sumIn, sumOut, sumGain float64
	for processed := 0; processed+cfg.Window <= cfg.Ids; processed += cfg.Window {
		for i := range batch {
			batch[i] = src.Next()
		}
		emitted = sampler.ProcessBatchEmit(batch, emitted[:0])
		if processed == 0 {
			continue // warm-up: the memory starts empty
		}
		in.Reset()
		out.Reset()
		for _, id := range batch {
			in.Add(id)
		}
		for _, id := range emitted {
			out.Add(id)
		}
		gain, err := metrics.Gain(in, out, support)
		if err != nil {
			return Cell{}, fmt.Errorf("window at %d: %w", processed, err)
		}
		inKL, err := in.KLvsUniform(support)
		if err != nil {
			return Cell{}, err
		}
		outKL, err := out.KLvsUniform(support)
		if err != nil {
			return Cell{}, err
		}
		sumIn += inKL
		sumOut += outKL
		sumGain += gain
		cell.Windows++
	}
	if cell.Windows == 0 {
		return Cell{}, fmt.Errorf("no scored windows")
	}
	cell.InputKL = sumIn / float64(cell.Windows)
	cell.OutputKL = sumOut / float64(cell.Windows)
	cell.Gain = sumGain / float64(cell.Windows)
	return cell, nil
}
