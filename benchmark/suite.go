package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// A result set is what a full suite writes with -o and what -compare reads:
// per workload and end-to-end metric the median over the set's runs, the
// values behind it and their spread.

type setMetric struct {
	measured
	Values []float64 `json:"values,omitempty"`
	// Spread is the distance between the first and third quartile of Values
	// as a share of their median (the driver's steadiness measure).
	Spread float64 `json:"spread,omitempty"`
}

type setWorkload struct {
	Connections int                  `json:"connections"`
	EndToEnd    map[string]setMetric `json:"end_to_end"`
	PerLayer    map[string]measured  `json:"per_layer,omitempty"`
}

type resultSet struct {
	Env       *environment           `json:"env"`
	Seed      uint64                 `json:"seed"`
	Runs      int                    `json:"runs"`
	Seconds   int                    `json:"seconds"`
	Rates     map[string]int         `json:"frozen_rates"`
	Workloads map[string]setWorkload `json:"workloads"`
}

// quartiles are Python's statistics.quantiles(v, n=4): the driver computes
// spreads with it, so the harness does too.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// suite runs every workload: -runs untraced windows on consecutive seeds,
// then one traced run, and prints every metric by name with its unit.
func suite(o options, env *environment) int {
	printEnv(o, env)
	set := resultSet{
		Env: env, Seed: o.seed, Runs: o.runs, Seconds: o.seconds,
		Rates: map[string]int{
			"sigma_fanout_ids_per_s": sigmaFanoutRate, "gossip_mix_ids_per_s": gossipMixRate,
			"fleet_mixed_ids_per_s": fleetMixedRate, "fleet_mixed_samples_per_s": fleetSampleRate,
			"reference_ids_per_s": referenceRate, "reference_samples_per_s": referenceSample,
		},
		Workloads: map[string]setWorkload{},
	}
	failed := false
	for i := range workloads {
		w := &workloads[i]
		sw := setWorkload{EndToEnd: map[string]setMetric{}}
		values := map[string][]float64{}
		counts := map[string]int{}
		for r := 0; r < o.runs; r++ {
			res, err := measure(w, o.seed+uint64(r), windowConfig(o, env, false))
			if err != nil {
				return report(fmt.Errorf("%s: %w", w.Name, err))
			}
			printRun(res)
			failed = failed || !res.ok()
			sw.Connections = res.conns
			for k, v := range res.e2e {
				values[k] = append(values[k], v)
				counts[k] = res.counts[k]
			}
		}
		for _, e := range endToEnd {
			sw.EndToEnd[e.Name] = setMetric{
				measured: measured{Value: median(values[e.Name]), Unit: e.Unit, N: counts[e.Name]},
				Values:   values[e.Name],
				Spread:   spread(values[e.Name]),
			}
		}
		medians := map[string]measured{}
		for name, m := range sw.EndToEnd {
			medians[name] = m.measured
		}
		printMetrics(w.Name, e2eNames(), medians)
		for _, e := range endToEnd {
			if o.runs > 1 {
				fmt.Printf("# %s: %s spread %.1f %% over %d runs, bound %.0f %%\n", w.Name, e.Name, 100*sw.EndToEnd[e.Name].Spread, o.runs, 100*e.Bound)
			}
		}

		layer, tr, err := traced(w, o.seed, o, env)
		if err != nil {
			return report(fmt.Errorf("%s traced: %w", w.Name, err))
		}
		printRun(tr)
		failed = failed || !tr.ok()
		sw.PerLayer = layerMeasured(layer)
		printMetrics(w.Name, layerNames(), sw.PerLayer)
		set.Workloads[w.Name] = sw
	}
	if o.out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return report(err)
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return report(err)
		}
	}
	if err := writeSpec(filepath.Join(o.root, "BENCHMARK.json")); err != nil {
		return report(err)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: at least one run failed its checks; daemon logs are under", env.outDir)
		return 1
	}
	return 0
}

// compareSets prints one row per (workload, end-to-end metric) of two result
// sets and exits non-zero when any pair differs by more than the metric's
// bound. The ratio is B over A; A is the base.
func compareSets(pathA, pathB string) int {
	load := func(p string) (*resultSet, error) {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s resultSet
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	a, err := load(pathA)
	if err != nil {
		return report(err)
	}
	b, err := load(pathB)
	if err != nil {
		return report(err)
	}
	fmt.Printf("%-16s %-24s %16s %16s %9s %7s\n", "workload", "metric", "A (base)", "B", "B/A", "bound")
	bad := 0
	for _, w := range workloads {
		for _, e := range endToEnd {
			va, okA := a.Workloads[w.Name].EndToEnd[e.Name]
			vb, okB := b.Workloads[w.Name].EndToEnd[e.Name]
			if !okA || !okB || va.Value == 0 {
				fmt.Printf("%-16s %-24s missing from one set\n", w.Name, e.Name)
				bad++
				continue
			}
			ratio := vb.Value / va.Value
			verdict := ""
			if math.Abs(ratio-1) > e.Bound {
				verdict = "  DIFFERS"
				bad++
			}
			fmt.Printf("%-16s %-24s %16.4f %16.4f %9.4f %6.0f%%%s\n", w.Name, e.Name, va.Value, vb.Value, ratio, 100*e.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d of %d pairs differ by more than their bound\n", bad, len(workloads)*len(endToEnd))
		return 1
	}
	return 0
}
