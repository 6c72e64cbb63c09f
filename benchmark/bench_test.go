package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nodesampling"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecWithinContract holds the tables of spec.go to the limits the driver
// puts on BENCHMARK.json, and the committed file to the tables.
func TestSpecWithinContract(t *testing.T) {
	f := specFile()
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	setup := false
	for _, e := range f.EndToEnd {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Better != lower && e.Better != higher {
			t.Errorf("%s: better %q", e.Name, e.Better)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, e := range f.PerLayer {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		for _, m := range w.fromReference {
			if !seen[m] {
				t.Errorf("%s takes unknown metric %q from the reference service", w.Name, m)
			}
		}
	}

	want, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json is not what spec.go generates; run: bash benchmark/run.sh -write-spec BENCHMARK.json")
	}
}

// goodCounters is a drained run every check accepts.
func goodCounters(workload string) counters {
	return counters{
		workload:  workload,
		sent:      3000,
		processed: []uint64{1000, 1000, 1000},
		dropped:   []uint64{0, 0, 0},
		subs: []subCounters{{
			offered: 990, delivered: 900, dropped: 40, filtered: 30, capped: 10, depth: 10,
			received: 890, clientDropped: 10, emitDropped: 10, expected: 1000,
		}},
		klIn: 6, klOut: 1,
		forwarded: 2000,
	}
}

func failing(cs []check) []string {
	var names []string
	for _, c := range cs {
		if !c.ok {
			names = append(names, c.name)
		}
	}
	return names
}

// TestChecksFailOnDoctoredCounters feeds each check counters that are off by
// one id: a check that cannot fail checks nothing.
func TestChecksFailOnDoctoredCounters(t *testing.T) {
	for _, w := range []string{"ingest_saturate", "sigma_fanout", "gossip_mix", "fleet_mixed", "reference"} {
		if bad := failing(runChecks(goodCounters(w))); len(bad) > 0 {
			t.Fatalf("%s: consistent counters fail %v", w, bad)
		}
	}
	cases := []struct {
		name, workload, check string
		doctor                func(*counters)
	}{
		{"an id vanished", "gossip_mix", "a.ids_conserved", func(c *counters) { c.processed[0]-- }},
		{"an id appeared", "gossip_mix", "a.ids_conserved", func(c *counters) { c.sent-- }},
		{"a draw vanished in the hub", "sigma_fanout", "a.sub0_conserved", func(c *counters) { c.subs[0].delivered-- }},
		{"a draw vanished on the wire", "sigma_fanout", "a.sub0_socket_to_socket", func(c *counters) { c.subs[0].received-- }},
		{"an id emitted no draw", "sigma_fanout", "a.sub0_one_draw_per_id", func(c *counters) { c.subs[0].offered-- }},
		{"a blocking pool dropped", "ingest_saturate", "b.block_drops_nothing", func(c *counters) { c.processed[0]--; c.dropped[0]++ }},
		{"the sampler stopped unbiasing", "sigma_fanout", "c.gain_at_least_half", func(c *counters) { c.klOut = 3.1 }},
		{"a short Sample answer", "gossip_mix", "d.samples_well_formed", func(c *counters) { c.badSamples = 1 }},
		{"member 0 lost a forward", "fleet_mixed", "e.member0_keeps_or_forwards", func(c *counters) { c.forwarded-- }},
		{"a Sample missed a member", "fleet_mixed", "e.no_member_missed", func(c *counters) { c.memberMisses = 1 }},
	}
	for _, tc := range cases {
		c := goodCounters(tc.workload)
		tc.doctor(&c)
		bad := failing(runChecks(c))
		found := false
		for _, b := range bad {
			found = found || b == tc.check
		}
		if !found {
			t.Errorf("%s: check %s did not fail (failing: %v)", tc.name, tc.check, bad)
		}
	}
}

// TestResultLineCountsIdsAndRPCs pins what the driver is told: ids and
// request/response exchanges, of either window; lost sigma-prime draws stay in
// fail_share.
func TestResultLineCountsIdsAndRPCs(t *testing.T) {
	r := &runResult{
		attempted: map[string]int64{"ingest_ids": 1000, "rpcs": 10, sigmaDraws: 2000, "reference.ingest_ids": 100, "reference." + sigmaDraws: 100},
		failed:    map[string]int64{"rpcs": 1, sigmaDraws: 40, "reference.ingest_ids": 2, "reference." + sigmaDraws: 50},
	}
	if a, f := r.totals(); a != 1110 || f != 3 {
		t.Errorf("result line carries failed %d of %d, want 3 of 1110", f, a)
	}
	if got := r.failShare(); got != 0.5 {
		t.Errorf("fail_share %v, want the worst kind's 0.5", got)
	}
}

// TestSampleAnswerCheck is check (d) at its source: exactly 16 ids, all from
// the pushed population.
func TestSampleAnswerCheck(t *testing.T) {
	in := genInput(1, pushSpec{frame: 16, dist: uniform, pop: 1000})
	s := &sampler{in: in}
	good := in.frames[0]
	if !s.valid(good) {
		t.Fatal("a full answer from the population is refused")
	}
	if s.valid(good[:15]) {
		t.Error("a 15-id answer is accepted")
	}
	stranger := append([]nodesampling.NodeID(nil), good...)
	stranger[7] = nodesampling.NodeID(in.base + uint64(in.pop) + 1)
	if s.valid(stranger) {
		t.Error("an answer holding an id that was never pushed is accepted")
	}
}

func TestInputDependsOnlyOnSeed(t *testing.T) {
	p := pushSpec{frame: 16, dist: flood, pop: 4096}
	a, b, c := genInput(7, p), genInput(7, p), genInput(8, p)
	if a.base != b.base || a.frames[100][3] != b.frames[100][3] {
		t.Error("the same seed gave different inputs")
	}
	if a.base == c.base {
		t.Error("different seeds gave the same population")
	}
	if share := float64(a.hist[0]) / float64(cycleIDs); math.Abs(share-0.8) > 0.01 {
		t.Errorf("the flood's victim is %.3f of the stream, want 0.8", share)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{10, 2, 38, 23, 38, 23, 21})
	if q1 != 10 || q3 != 38 {
		t.Errorf("quartiles = %v .. %v, want 10 .. 38", q1, q3)
	}
}

func TestCompareSets(t *testing.T) {
	set := func(scale float64) string {
		s := resultSet{Workloads: map[string]setWorkload{}}
		for _, w := range workloads {
			sw := setWorkload{EndToEnd: map[string]setMetric{}}
			for _, e := range endToEnd {
				v := 100.0
				if w.Name == "gossip_mix" && e.Name == "sample_rtt_us_p50" {
					v *= scale
				}
				sw.EndToEnd[e.Name] = setMetric{measured: measured{Value: v, Unit: e.Unit}}
			}
			s.Workloads[w.Name] = sw
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := set(1)
	if code := compareSets(base, set(1.02)); code != 0 {
		t.Errorf("sets 2 %% apart compare as different (exit %d)", code)
	}
	if code := compareSets(base, set(1.5)); code == 0 {
		t.Error("a metric 50 % apart passes -compare")
	}
}

// TestQuickPass runs the harness as the driver does, in its -quick shape, on
// every workload, untraced and traced, and holds the output to the spec:
// every metric once, by name, with its unit, and the result line's keys.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons; skipped under -short")
	}
	dir := t.TempDir()
	build := func(out, pkgDir, pkg string) {
		cmd := exec.Command("go", "build", "-o", out, pkg)
		cmd.Dir = pkgDir
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, b)
		}
	}
	harness, unsd := filepath.Join(dir, "benchmark"), filepath.Join(dir, "unsd")
	build(harness, ".", ".")
	build(unsd, "..", "./cmd/unsd")

	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				t.Parallel()
				cmd := exec.Command(harness, "-quick", "-unsd", unsd, "-root", "..",
					"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s\n%s", err, out, stderr.Bytes())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var result struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&result); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !result.Correct || result.Attempted < 1 || result.Failed != 0 {
					t.Errorf("correct %v, failed %d of %d attempted", result.Correct, result.Failed, result.Attempted)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, e := range endToEnd {
						want[e.Name] = e.Unit
					}
				} else {
					for _, e := range perLayer {
						want[e.Name] = e.Unit
					}
				}
				if len(result.Metrics) != len(want) {
					t.Errorf("%d metrics in the result line, want %d", len(result.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := result.Metrics[name]
					switch {
					case !ok || m.Value == nil:
						t.Errorf("%s missing from the result line", name)
					case m.Unit != unit:
						t.Errorf("%s has unit %q, want %q", name, m.Unit, unit)
					case trace == "0" && !(*m.Value > 0):
						t.Errorf("%s = %v, want a positive measurement", name, *m.Value)
					}
					printed := 0
					for _, l := range lines {
						f := strings.Fields(l)
						if len(f) >= 4 && f[0] == w.Name && f[1] == name && f[3] == unit {
							printed++
						}
					}
					if printed != 1 {
						t.Errorf("%s printed %d times, want once", name, printed)
					}
				}
				if trace == "1" {
					b, err := os.ReadFile(filepath.Join("out", "trace-"+w.Name+".json"))
					if err != nil {
						t.Fatal(err)
					}
					var tr struct {
						TraceEvents []map[string]any `json:"traceEvents"`
					}
					if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
						t.Errorf("trace file does not load as Chrome trace events: %v (%d events)", err, len(tr.TraceEvents))
					}
				}
			})
		}
	}
}
