package experiments

import (
	"fmt"
	"math"

	"nodesampling/internal/core"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
	"nodesampling/internal/trace"
)

// traceSpecs returns the Table II specifications, shrunk by a factor 20 in
// Quick mode so the suite stays fast while keeping the Zipf profile.
func traceSpecs(cfg Config) []trace.Spec {
	specs := trace.TableII()
	if !cfg.Quick {
		return specs
	}
	// Shrink the stream 20x but the population 50x, preserving enough
	// stream-per-id for the samplers to reach their stationary regime in
	// quick runs (the full-scale ratio is restored in real runs).
	for i := range specs {
		specs[i].M /= 20
		specs[i].N /= 50
		specs[i].MaxFreq /= 20
	}
	return specs
}

// forEachTrace calls fn on every trace the trace experiments replay, one at
// a time: cfg.Trace alone, named "log", when set, otherwise the three
// synthetic Table II traces.
func forEachTrace(cfg Config, fn func(name string, tr *trace.Trace) error) error {
	if cfg.Trace != nil {
		return fn("log", cfg.Trace)
	}
	for _, spec := range traceSpecs(cfg) {
		tr, err := trace.Synthesize(spec, cfg.Seed)
		if err == nil {
			err = fn(spec.Name, tr)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	return nil
}

// traceSource says in a title what forEachTrace replays.
func traceSource(cfg Config) string {
	if cfg.Trace != nil {
		return "the loaded log"
	}
	return "the synthesized traces"
}

// Table2 regenerates Table II: the statistics of the three data traces. The
// synthetic substitutes must reproduce all three statistics exactly.
func Table2(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "table2",
		Title:   "Table II: statistics of " + traceSource(cfg),
		Columns: []string{"trace", "# ids (m)", "# distinct (n)", "max freq", "calibrated zipf alpha"},
		Notes: "Synthetic traces calibrated to the paper's published statistics (the internal/trace " +
			"package doc argues the substitution); all three statistics are matched exactly by " +
			"construction. A loaded log gets '-' for alpha when no Zipf profile fits it.",
	}
	err := forEachTrace(cfg, func(name string, tr *trace.Trace) error {
		alpha := "-"
		if a, err := trace.CalibrateZipfAlpha(trace.Spec{
			Name: name, M: tr.Len(), N: tr.Distinct(), MaxFreq: tr.MaxFreq(),
		}); err == nil {
			alpha = fmtF(a)
		}
		t.Rows = append(t.Rows, []string{
			name, fmtInt(tr.Len()), fmtInt(tr.Distinct()), fmtInt(int(tr.MaxFreq())), alpha,
		})
		return nil
	})
	if err != nil {
		return Table{}, fmt.Errorf("table2: %w", err)
	}
	return t, nil
}

// Fig5 regenerates Figure 5: the log-log rank/frequency profile of each
// trace, sampled at log-spaced ranks.
func Fig5(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "fig5",
		Title:   "Figure 5: rank/frequency distribution of " + traceSource(cfg) + " (log-log)",
		Columns: []string{"rank"},
		Notes:   "Paper shape: straight lines in log-log space (Zipfian), Saskatchewan with the lowest slope.",
	}
	var series [][]uint64
	maxN := 0
	err := forEachTrace(cfg, func(name string, tr *trace.Trace) error {
		t.Columns = append(t.Columns, name)
		series = append(series, tr.RankFrequency())
		maxN = max(maxN, tr.Distinct())
		return nil
	})
	if err != nil {
		return Table{}, fmt.Errorf("fig5: %w", err)
	}
	for _, rank := range logGrid(1, maxN, 20) {
		row := []string{fmtInt(rank)}
		for _, freqs := range series {
			if rank <= len(freqs) {
				row = append(row, fmtInt(int(freqs[rank-1])))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig12 regenerates Figure 12: the KL divergence of the input stream and of
// the sampler outputs for each trace, with the knowledge-free strategy at
// the paper's two sizing points c = k = log n and c = k = 0.01·n.
func Fig12(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	const s = 10 // row count; the figure's caption fixes only c and k
	t := Table{
		ID:    "fig12",
		Title: "Figure 12: KL divergence to uniform on " + traceSource(cfg),
		Columns: []string{
			"trace", "D(input||U)", "D(kf, c=k=log n)", "D(kf, c=k=0.01n)", "D(omniscient)",
		},
		Notes: "Paper shape: input well above the outputs; kf with c=k=0.01n close to omniscient; " +
			"omniscient near zero. Sketch depth s=10 (unspecified in the paper's caption).",
	}
	err := forEachTrace(cfg, func(name string, tr *trace.Trace) error {
		n := tr.Distinct()
		logN := int(math.Round(math.Log(float64(n))))
		if logN < 2 {
			logN = 2
		}
		pctN := n / 100
		if pctN < 2 {
			pctN = 2
		}
		oracle, err := core.NewCountOracle(tr.Counts())
		if err != nil {
			return err
		}
		kfSmall, err := core.NewKnowledgeFree(logN, logN, s, rng.New(rng.Mix64(cfg.Seed+11)))
		if err != nil {
			return err
		}
		kfLarge, err := core.NewKnowledgeFree(pctN, pctN, s, rng.New(rng.Mix64(cfg.Seed+12)))
		if err != nil {
			return err
		}
		om, err := core.NewOmniscient(pctN, oracle, rng.New(rng.Mix64(cfg.Seed+13)))
		if err != nil {
			return err
		}
		input := metrics.NewHistogram()
		hSmall := metrics.NewHistogram()
		hLarge := metrics.NewHistogram()
		hOm := metrics.NewHistogram()
		for _, id := range tr.IDs() {
			input.Add(id)
			hSmall.Add(kfSmall.Process(id))
			hLarge.Add(kfLarge.Process(id))
			hOm.Add(om.Process(id))
		}
		din, err := input.KLvsUniform(n)
		if err != nil {
			return err
		}
		dSmall, err := hSmall.KLvsUniform(n)
		if err != nil {
			return err
		}
		dLarge, err := hLarge.KLvsUniform(n)
		if err != nil {
			return err
		}
		dOm, err := hOm.KLvsUniform(n)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			name, fmtF(din), fmtF(dSmall), fmtF(dLarge), fmtF(dOm),
		})
		return nil
	})
	if err != nil {
		return Table{}, fmt.Errorf("fig12: %w", err)
	}
	return t, nil
}
