package loadgen

// Multi-target runs: one generator per cluster member, driven in phase
// lockstep, with the per-target phase reports merged into a fleet view.
// Against an unsd cluster this is the honest way to measure the plane —
// ingest enters at every member (each batch is then routed to its owner
// internally), and the merged uniformity trajectory shows what the fleet
// as a whole absorbed.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// RunMulti drives several generators through their phase lists in
// lockstep: phase j starts on every target together and the run waits for
// all of them before phase j+1 (so a flood phase hits the whole fleet at
// once, the way an adversary would). phases[i] belongs to gens[i]; all
// lists must be the same length, and phase j should carry the same name
// everywhere (typically StandardPhases with per-target seeds). Returns one
// merged report per phase. The first per-target error aborts after the
// current phase completes everywhere; merged reports for completed phases
// come back alongside it.
func RunMulti(ctx context.Context, gens []*Generator, phases [][]Phase) ([]Report, error) {
	if len(gens) == 0 {
		return nil, errors.New("loadgen: no generators")
	}
	if len(phases) != len(gens) {
		return nil, fmt.Errorf("loadgen: %d phase lists for %d generators", len(phases), len(gens))
	}
	nPhases := len(phases[0])
	for i, ph := range phases {
		if len(ph) != nPhases {
			return nil, fmt.Errorf("loadgen: phase list %d has %d phases, want %d", i, len(ph), nPhases)
		}
	}
	merged := make([]Report, 0, nPhases)
	for j := 0; j < nPhases; j++ {
		reports := make([]Report, len(gens))
		errs := make([]error, len(gens))
		var wg sync.WaitGroup
		for i, g := range gens {
			wg.Add(1)
			go func(i int, g *Generator) {
				defer wg.Done()
				reports[i], errs[i] = g.runPhase(ctx, phases[i][j])
			}(i, g)
		}
		wg.Wait()
		merged = append(merged, MergeReports(reports))
		for i, err := range errs {
			if err != nil {
				return merged, fmt.Errorf("loadgen: target %d phase %s: %w", i, phases[i][j].Name, err)
			}
		}
	}
	return merged, nil
}

// MergeReports folds per-target reports of the same phase into one fleet
// report: offered ids, scrape counts and counter deltas sum, the duration is
// the slowest target's (the fleet is done when its last member is), the rate
// is the fleet's aggregate push rate, and the gauge trajectories interleave
// in elapsed order — each point is one member's /metrics view at that
// moment. Latency summaries merge conservatively: counts sum, percentiles
// take the worst (element-wise max) across targets, so a merged P99 never
// understates any member's.
func MergeReports(reports []Report) Report {
	if len(reports) == 0 {
		return Report{}
	}
	out := Report{Name: reports[0].Name, HaveDeltas: true}
	for _, r := range reports {
		out.Offered += r.Offered
		if r.Duration > out.Duration {
			out.Duration = r.Duration
		}
		out.Scrapes += r.Scrapes
		out.ScrapeErrors += r.ScrapeErrors
		out.Gauge = append(out.Gauge, r.Gauge...)
		out.Processed += r.Processed
		out.Dropped += r.Dropped
		out.ClusterSamples += r.ClusterSamples
		out.MemberExchanges += r.MemberExchanges
		if !r.HaveDeltas {
			out.HaveDeltas = false
		}
		out.PushAck = mergeLatency(out.PushAck, r.PushAck)
		out.SampleRPC = mergeLatency(out.SampleRPC, r.SampleRPC)
	}
	sort.SliceStable(out.Gauge, func(i, j int) bool {
		return out.Gauge[i].Elapsed < out.Gauge[j].Elapsed
	})
	if !out.HaveDeltas {
		out.Processed, out.Dropped = 0, 0
	}
	if total := out.Processed + out.Dropped; total > 0 {
		out.DropFraction = out.Dropped / total
	}
	if secs := out.Duration.Seconds(); secs > 0 {
		out.AchievedRate = float64(out.Offered) / secs
	}
	return out
}

// mergeLatency folds one summary into an accumulator: summed counts,
// worst-case percentiles.
func mergeLatency(a, b LatencySummary) LatencySummary {
	return LatencySummary{
		Count: a.Count + b.Count,
		P50:   maxDuration(a.P50, b.P50),
		P95:   maxDuration(a.P95, b.P95),
		P99:   maxDuration(a.P99, b.P99),
		Max:   maxDuration(a.Max, b.Max),
	}
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
