package loadgen

import (
	"context"
	"testing"
	"time"
)

func TestMergeReports(t *testing.T) {
	if got := MergeReports(nil); got.Offered != 0 || got.HaveDeltas {
		t.Fatalf("empty merge = %+v", got)
	}
	a := Report{
		Name: "uniform", Offered: 100, Duration: 2 * time.Second,
		Scrapes: 3, ScrapeErrors: 1,
		Gauge: []GaugePoint{
			{Elapsed: 10 * time.Millisecond, InputKL: 0.5, HasIn: true},
			{Elapsed: 30 * time.Millisecond, InputKL: 0.7, HasIn: true},
		},
		Processed: 80, Dropped: 20, HaveDeltas: true,
		ClusterSamples: 100, MemberExchanges: 20,
		PushAck:   LatencySummary{Count: 4, P50: 1 * time.Millisecond, P95: 2 * time.Millisecond, P99: 3 * time.Millisecond, Max: 4 * time.Millisecond},
		SampleRPC: LatencySummary{Count: 2, P50: 5 * time.Millisecond, P95: 6 * time.Millisecond, P99: 7 * time.Millisecond, Max: 8 * time.Millisecond},
	}
	b := Report{
		Name: "uniform", Offered: 60, Duration: 3 * time.Second,
		Scrapes: 2,
		Gauge: []GaugePoint{
			{Elapsed: 20 * time.Millisecond, InputKL: 0.9, HasIn: true},
		},
		Processed: 40, Dropped: 10, HaveDeltas: true,
		ClusterSamples: 50, MemberExchanges: 40,
		PushAck:   LatencySummary{Count: 1, P50: 9 * time.Millisecond, P95: 9 * time.Millisecond, P99: 9 * time.Millisecond, Max: 9 * time.Millisecond},
		SampleRPC: LatencySummary{Count: 3, P50: 1 * time.Millisecond, P95: 2 * time.Millisecond, P99: 9 * time.Millisecond, Max: 3 * time.Millisecond},
	}
	m := MergeReports([]Report{a, b})
	if m.Name != "uniform" || m.Offered != 160 {
		t.Fatalf("merged name/offered = %q/%d", m.Name, m.Offered)
	}
	if m.Duration != 3*time.Second {
		t.Fatalf("merged duration %v, want the slowest target's 3s", m.Duration)
	}
	if m.Scrapes != 5 || m.ScrapeErrors != 1 {
		t.Fatalf("merged scrapes %d/%d, want 5/1", m.Scrapes, m.ScrapeErrors)
	}
	if m.Processed != 120 || m.Dropped != 30 || !m.HaveDeltas {
		t.Fatalf("merged deltas %+v", m)
	}
	if m.ClusterSamples != 150 || m.MemberExchanges != 60 {
		t.Fatalf("merged sample plane %v Samples / %v exchanges, want 150 / 60", m.ClusterSamples, m.MemberExchanges)
	}
	if m.DropFraction != 30.0/150.0 {
		t.Fatalf("merged drop fraction %v", m.DropFraction)
	}
	if want := 160.0 / 3.0; m.AchievedRate < want-0.01 || m.AchievedRate > want+0.01 {
		t.Fatalf("merged achieved rate %v, want ~%v", m.AchievedRate, want)
	}
	// The gauge trajectories interleave in elapsed order: a's 10ms point,
	// b's 20ms point, a's 30ms point.
	if len(m.Gauge) != 3 {
		t.Fatalf("merged gauge has %d points", len(m.Gauge))
	}
	for i, want := range []float64{0.5, 0.9, 0.7} {
		if m.Gauge[i].InputKL != want {
			t.Fatalf("gauge point %d = %+v, want InputKL %v", i, m.Gauge[i], want)
		}
	}
	// Latency merges conservatively: counts sum, percentiles take the
	// element-wise worst across targets.
	if m.PushAck.Count != 5 || m.PushAck.P50 != 9*time.Millisecond || m.PushAck.Max != 9*time.Millisecond {
		t.Fatalf("merged push-ack %+v", m.PushAck)
	}
	if m.SampleRPC.Count != 5 || m.SampleRPC.P50 != 5*time.Millisecond ||
		m.SampleRPC.P99 != 9*time.Millisecond || m.SampleRPC.Max != 8*time.Millisecond {
		t.Fatalf("merged sample-rpc %+v", m.SampleRPC)
	}

	// One target without deltas poisons the merged deltas (a partial sum
	// would understate the fleet), but everything else still merges.
	b.HaveDeltas = false
	m = MergeReports([]Report{a, b})
	if m.HaveDeltas || m.Processed != 0 || m.Dropped != 0 || m.DropFraction != 0 {
		t.Fatalf("merge with a delta-less target = %+v", m)
	}
	if m.Offered != 160 {
		t.Fatalf("offered %d after delta poisoning, want 160", m.Offered)
	}
}

func TestRunMultiValidation(t *testing.T) {
	sink := newFrameSink(t)
	g, err := New(Config{Addr: sink.addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	phases, err := StandardPhases(256, 100, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMulti(context.Background(), nil, nil); err == nil {
		t.Fatal("no generators accepted")
	}
	if _, err := RunMulti(context.Background(), []*Generator{g}, nil); err == nil {
		t.Fatal("mismatched phase-list count accepted")
	}
	if _, err := RunMulti(context.Background(), []*Generator{g, g}, [][]Phase{phases, phases[:2]}); err == nil {
		t.Fatal("ragged phase lists accepted")
	}
}

// TestRunMultiAgainstSinks drives two generators through two phases in
// lockstep against separate sinks and checks the merged fleet view: offered
// ids sum across targets and every target's stream reaches its own sink.
func TestRunMultiAgainstSinks(t *testing.T) {
	sinks := []*frameSink{newFrameSink(t), newFrameSink(t)}
	gens := make([]*Generator, len(sinks))
	phaseLists := make([][]Phase, len(sinks))
	for i, sink := range sinks {
		g, err := New(Config{Addr: sink.addr(), Batch: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		phases, err := StandardPhases(256, 1024, uint64(i+1), 0)
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = g
		phaseLists[i] = phases[:2] // uniform + flood
	}
	reports, err := RunMulti(context.Background(), gens, phaseLists)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d merged reports, want 2", len(reports))
	}
	for _, rep := range reports {
		if rep.Offered != 2048 {
			t.Fatalf("phase %s offered %d across the fleet, want 2048", rep.Name, rep.Offered)
		}
		if rep.Duration <= 0 || rep.AchievedRate <= 0 {
			t.Fatalf("phase %s merged timing %v / %v", rep.Name, rep.Duration, rep.AchievedRate)
		}
	}
	for i, sink := range sinks {
		waitFor(t, "all pushed ids to land in each sink", func() bool {
			return sink.total() == 2048
		})
		// The flood phase concentrates 80% on id population/2 = 128 at every
		// target — the phases run per target, not split between them.
		if c := sink.count(128); c < 600 {
			t.Fatalf("sink %d saw the flood victim %d times of 1024, want the 80%% share", i, c)
		}
	}
}
