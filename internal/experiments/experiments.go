// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a function from a Config to a Table of
// formatted rows — the same rows/series the paper reports — and is
// registered under the paper artifact's identifier (fig3 … fig12, table1,
// table2) plus a few validation/ablation extensions.
//
// Simulation experiments average `Trials` independent runs (the paper used
// 100); trials run concurrently on a worker pool. All randomness derives
// from Config.Seed, so a run is fully reproducible.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"nodesampling/internal/core"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
	"nodesampling/internal/stream"
	"nodesampling/internal/trace"
)

// Table is a regenerated paper artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// Config controls experiment execution.
type Config struct {
	// Trials to average for simulation experiments. The paper averaged 100;
	// 10 gives the same shapes within a couple of percent.
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds trial-level parallelism (0 = 4).
	Workers int
	// Quick shrinks stream lengths and sweep grids so the whole suite runs
	// in seconds; shapes remain but absolute values get noisier. Used by
	// tests and benchmarks.
	Quick bool
	// Trace, when set, replaces the three synthetic Table II traces in
	// table2, fig5 and fig12 — for example a real log read with
	// trace.ParseCommonLog. Quick does not shrink it.
	Trace *trace.Trace
}

func (c Config) withDefaults() Config {
	if c.Trials < 1 {
		c.Trials = 10
	}
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Runner is an experiment entry point.
type Runner func(Config) (Table, error)

// Registry returns the experiment identifiers in presentation order with
// their runners.
func Registry() ([]string, map[string]Runner) {
	order := []string{
		"fig3", "fig4", "table1", "table2", "fig5", "fig6",
		"fig7a", "fig7b", "fig8", "fig9", "fig10a", "fig10b",
		"fig11", "fig12",
		"thm4", "transient",
		"ablation-minwise", "ablation-evict", "ablation-cu", "ablation-churn",
		"gossip", "tournament",
	}
	m := map[string]Runner{
		"fig3":             Fig3,
		"fig4":             Fig4,
		"table1":           Table1,
		"table2":           Table2,
		"fig5":             Fig5,
		"fig6":             Fig6,
		"fig7a":            Fig7a,
		"fig7b":            Fig7b,
		"fig8":             Fig8,
		"fig9":             Fig9,
		"fig10a":           Fig10a,
		"fig10b":           Fig10b,
		"fig11":            Fig11,
		"fig12":            Fig12,
		"thm4":             Thm4,
		"ablation-minwise": AblationMinWise,
		"ablation-evict":   AblationEvict,
		"ablation-cu":      AblationCU,
		"ablation-churn":   AblationChurn,
		"transient":        Transient,
		"gossip":           Gossip,
		"tournament":       tournament,
	}
	return order, m
}

// fmtInt formats an integer cell.
func fmtInt(v int) string { return strconv.Itoa(v) }

// fmtF formats a float cell with four significant digits.
func fmtF(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// samplerFactory builds a sampler for one simulation trial. The source is
// the exact composite distribution of the trial's input stream (it
// implements core.Oracle for the omniscient strategy).
type samplerFactory func(src *stream.Categorical, r *rng.Xoshiro) (core.Sampler, error)

func omniscientFactory(c int) samplerFactory {
	return func(src *stream.Categorical, r *rng.Xoshiro) (core.Sampler, error) {
		return core.NewOmniscient(c, src, r)
	}
}

func knowledgeFreeFactory(c, k, s int) samplerFactory {
	return func(_ *stream.Categorical, r *rng.Xoshiro) (core.Sampler, error) {
		return core.NewKnowledgeFree(c, k, s, r)
	}
}

// trialResult carries the divergences measured in one simulation trial.
type trialResult struct {
	din  float64   // D_KL(input ‖ U)
	dout []float64 // per sampler: D_KL(output ‖ U)
}

// runTrial feeds one freshly drawn stream of length m through every sampler
// in parallel (all consume the same element sequence, as in the paper's
// comparisons) and returns the measured divergences over support n.
func runTrial(pmf []float64, m int, factories []samplerFactory, seed uint64) (trialResult, error) {
	n := len(pmf)
	src, err := stream.NewCategorical(pmf, rng.New(seed))
	if err != nil {
		return trialResult{}, err
	}
	samplers := make([]core.Sampler, len(factories))
	outs := make([]*metrics.Histogram, len(factories))
	seedRoot := seed ^ 0x9e3779b97f4a7c15
	for i, f := range factories {
		s, err := f(src, rng.New(rng.Mix64(seedRoot+uint64(i))))
		if err != nil {
			return trialResult{}, err
		}
		samplers[i] = s
		outs[i] = metrics.NewHistogram()
	}
	input := metrics.NewHistogram()
	for t := 0; t < m; t++ {
		id := src.Next()
		input.Add(id)
		for i, s := range samplers {
			outs[i].Add(s.Process(id))
		}
	}
	res := trialResult{dout: make([]float64, len(factories))}
	res.din, err = input.KLvsUniform(n)
	if err != nil {
		return trialResult{}, fmt.Errorf("input divergence: %w", err)
	}
	for i, h := range outs {
		res.dout[i], err = h.KLvsUniform(n)
		if err != nil {
			return trialResult{}, fmt.Errorf("output divergence (sampler %d): %w", i, err)
		}
	}
	return res, nil
}

// averageTrials runs cfg.Trials independent trials on a worker pool and
// averages the measured divergences.
func averageTrials(cfg Config, pmf []float64, m int, factories []samplerFactory) (trialResult, error) {
	cfg = cfg.withDefaults()
	results := make([]trialResult, cfg.Trials)
	errs := make([]error, cfg.Trials)
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for t := 0; t < cfg.Trials; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[t], errs[t] = runTrial(pmf, m, factories, rng.Mix64(cfg.Seed+uint64(t)*0x1001))
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return trialResult{}, err
		}
	}
	avg := trialResult{dout: make([]float64, len(factories))}
	for _, r := range results {
		avg.din += r.din
		for i, d := range r.dout {
			avg.dout[i] += d
		}
	}
	avg.din /= float64(cfg.Trials)
	for i := range avg.dout {
		avg.dout[i] /= float64(cfg.Trials)
	}
	return avg, nil
}

// gain converts a (din, dout) pair into the paper's G_KL. A non-positive
// input divergence yields NaN (undefined gain).
func gain(din, dout float64) float64 {
	if din <= 0 {
		return math.NaN()
	}
	return 1 - dout/din
}

// logGrid returns roughly `points` log-spaced integers in [lo, hi]
// (inclusive, deduplicated, sorted).
func logGrid(lo, hi, points int) []int {
	if points < 2 || lo >= hi {
		return []int{lo, hi}
	}
	set := make(map[int]struct{}, points)
	for i := 0; i < points; i++ {
		f := float64(i) / float64(points-1)
		v := int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), f)))
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		set[v] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
