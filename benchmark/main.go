// Command benchmark is the socket-to-socket benchmark of the unsd sampling
// daemon: it builds cmd/unsd, spawns real daemons on loopback, drives them
// only through their public surfaces (the client package, the framed wire
// protocol, GET /metrics, /proc/<pid>) and reports what an id costs from a
// client socket to a subscriber socket. README.md has the workloads, the
// metrics and how the layers map onto them.
//
// Usage:
//
//	bash benchmark/run.sh                                  all workloads, untraced then traced
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh -runs 10 -o set1.json            one acceptance set
//	bash benchmark/run.sh -compare set1.json set2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	quick    bool
	runs     int
	out      string
	root     string
	unsd     string
	spec     string
	compare  bool
	probe    string
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's result line (default: all four)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.BoolVar(&o.quick, "quick", false, "1 s windows, one slice, one set-up, guards off: a smoke pass")
	flag.IntVar(&o.runs, "runs", 1, "full suite: untraced runs per workload, on seeds seed..seed+runs-1; medians are reported")
	flag.StringVar(&o.out, "o", "", "full suite: also write the result set to this file (input of -compare)")
	flag.StringVar(&o.root, "root", "", "repository root (default: found from the working directory)")
	flag.StringVar(&o.unsd, "unsd", "", "prebuilt unsd binary (default: build cmd/unsd)")
	flag.StringVar(&o.spec, "write-spec", "", "write BENCHMARK.json to this path from the tables in spec.go and exit")
	flag.BoolVar(&o.compare, "compare", false, "compare two result sets (two file arguments); non-zero exit when any end-to-end metric differs by more than its bound")
	flag.StringVar(&o.probe, "probe-child", "", "internal: run the GOMAXPROCS=1 probes for a workload and print them as JSON")
	flag.Parse()

	// One generator process on at most two cores, whatever the box has.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	debug.SetGCPercent(400)

	// Daemons die with the harness on every exit path.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.Exit(130)
	}()
	defer killAll()

	switch {
	case o.spec != "":
		return report(writeSpec(o.spec))
	case o.compare:
		if flag.NArg() != 2 {
			return report(fmt.Errorf("-compare needs two result files, got %d", flag.NArg()))
		}
		return compareSets(flag.Arg(0), flag.Arg(1))
	case o.probe != "":
		return report(probeChild(o.probe, o.seed, o.quick))
	}

	if o.root == "" {
		o.root = findRoot()
	}
	env, err := prepare(&o)
	if err != nil {
		return report(err)
	}
	if o.workload != "" {
		return driverRun(o, env)
	}
	return suite(o, env)
}

func report(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the module that holds
// cmd/unsd.
func findRoot() string {
	dir, _ := os.Getwd()
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "cmd", "unsd", "main.go")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

// environment is what every run records beside its numbers.
type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	BuildS     float64 `json:"build_s"`
	unsd       string
	outDir     string
}

// prepare builds cmd/unsd (timed: benchmark.build_s) and collects the
// environment line.
func prepare(o *options) (*environment, error) {
	env := &environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		unsd:       o.unsd,
		outDir:     filepath.Join(o.root, "benchmark", "out"),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; then the commit stays
	// unknown.
	if out, err := exec.Command("git", "-C", o.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if env.unsd == "" {
		env.unsd = filepath.Join(o.root, ".bench_build", "unsd")
		began := time.Now()
		cmd := exec.Command("go", "build", "-o", env.unsd, "./cmd/unsd")
		cmd.Dir = o.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("build cmd/unsd: %v\n%s", err, out)
		}
		env.BuildS = time.Since(began).Seconds()
	}
	return env, nil
}

// windowConfig turns -seconds/-quick into a window shape.
func windowConfig(o options, env *environment, traced bool) runConfig {
	cfg := runConfig{
		unsd: env.unsd, outDir: env.outDir,
		window: time.Duration(o.seconds) * time.Second,
		slices: windowSlices, warmup: warmup, setups: setupCycles,
		traced: traced, guards: true,
	}
	if o.quick {
		cfg.window, cfg.slices, cfg.warmup, cfg.setups, cfg.guards = time.Second, 1, 300*time.Millisecond, 1, false
	}
	return cfg
}

// measured is one metric as printed and as written to result files.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a latency metric
}

// measure runs one workload once: its own window and, when the workload
// names metrics its own load cannot carry, a short window of the reference
// service whose values fill them in. The two share the --seconds budget.
func measure(w *workload, seed uint64, cfg runConfig) (*runResult, error) {
	refCfg := cfg
	if len(w.fromReference) > 0 {
		cfg.window = cfg.window * 3 / 4
		// Four short slices, not one: the lateness guard and the latencies are
		// medians over slices, and one stall of the box then costs one slice.
		refCfg.window, refCfg.slices, refCfg.setups = refCfg.window/5, min(refCfg.slices, 4), 1
	}
	res, err := guarded(w, genInput(seed, w.push), cfg)
	if err != nil {
		return nil, err
	}
	if len(w.fromReference) > 0 {
		ref, err := guarded(&reference, genInput(seed, reference.push), refCfg)
		if err != nil {
			return nil, fmt.Errorf("reference service: %w", err)
		}
		mergeReference(res, ref, w.fromReference)
	}
	// What the run reports must have been measured, and the driver refuses a
	// metric that reads 0.
	for _, e := range endToEnd {
		if v, ok := res.e2e[e.Name]; !ok || math.IsNaN(v) || v <= 0 {
			res.invalid = append(res.invalid, fmt.Sprintf("%s measured %v", e.Name, v))
		}
	}
	return res, nil
}

// guarded runs one window, and runs it once more when a validity guard
// refused it: a stall of the box should cost a rerun of that window. The second
// attempt stands whatever its guards say, marked NOISY: the driver wants a
// result from every run, slow minutes on a shared host outlast any number of
// reruns the time limit allows, and a bad minute is not a defect of the
// program — ten runs' median absorbs it.
func guarded(w *workload, in *input, cfg runConfig) (*runResult, error) {
	res, err := runWindow(w, in, cfg)
	if err != nil || len(res.noisy) == 0 {
		return res, err
	}
	fmt.Printf("# %s: window refused (%s), running it again\n", w.Name, strings.Join(res.noisy, "; "))
	return runWindow(w, in, cfg)
}

// mergeReference fills the named end-to-end metrics of res from the
// reference window, and folds that window's per-layer numbers (where the
// workload's own window has none), attempts, failures, checks and guards in.
func mergeReference(res, ref *runResult, names []string) {
	for _, name := range names {
		if v, ok := ref.e2e[name]; ok {
			res.e2e[name], res.counts[name] = v, ref.counts[name]
		}
	}
	for k, v := range ref.layer {
		if res.layer[k] == 0 {
			res.layer[k], res.counts[k] = v, ref.counts[k]
		}
	}
	for k, v := range ref.attempted {
		res.attempted["reference."+k] = v
		res.failed["reference."+k] = ref.failed[k]
	}
	for _, c := range ref.checks {
		c.name = "reference." + c.name
		res.checks = append(res.checks, c)
	}
	for _, g := range ref.invalid {
		res.invalid = append(res.invalid, "reference: "+g)
	}
	for _, g := range ref.noisy {
		res.noisy = append(res.noisy, "reference: "+g)
	}
	res.conns = max(res.conns, ref.conns)
	res.spanLogs = append(res.spanLogs, ref.spanLogs...)
	res.dumps = append(res.dumps, ref.dumps...)
}

// traced gives the per-layer numbers: an untraced and a traced measurement
// of a quarter of the time each (their difference is the tracing overhead),
// the raw local Sample under load, then the in-process probes on the same
// input.
func traced(w *workload, seed uint64, o options, env *environment) (map[string]float64, *runResult, error) {
	base := windowConfig(o, env, false)
	base.window, base.slices, base.setups, base.guards = base.window/4, 1, 1, false
	if o.quick {
		base.window = 500 * time.Millisecond
	}
	in := genInput(seed, w.push)
	plain, err := runWindow(w, in, base)
	if err != nil {
		return nil, nil, err
	}
	tcfg := base
	tcfg.traced = true
	tr, err := measure(w, seed, tcfg)
	if err != nil {
		return nil, nil, err
	}
	layer := tr.layer
	layer["fail_share"] = tr.failShare()
	if p := plain.e2e["daemon_cpu_ns_per_id"]; p > 0 {
		layer["benchmark.trace_overhead_share"] = (tr.e2e["daemon_cpu_ns_per_id"] - p) / p
	}
	layer["benchmark.build_s"] = env.BuildS

	probeLog := newSpanLog(true, "probes")
	local, err := sampleLocalUnderLoad(w, in, base)
	if err != nil {
		return nil, nil, err
	}
	layer["cluster.sample_local_us_p50"] = local
	layer["cluster.sample_overhead_us"] = tr.e2e["sample_rtt_us_p50"] - local
	if err := runProbes(w, in, o, layer, probeLog); err != nil {
		return nil, nil, err
	}
	// The reconciliation ROADMAP A(iv) asks for: what the daemon spends per
	// id beyond the layers the probes can time. CPU terms, so the shard term
	// is the single-core probe.
	cpu := tr.e2e["daemon_cpu_ns_per_id"]
	layer["unsd.unaccounted_ns_per_id"] = cpu - layer["netgossip.decode_ns_per_id"] - layer["shard.pushbatch_ns_per_id_p1"]
	layer["unsd.unaccounted_fanout_ns_per_id"] = layer["unsd.unaccounted_ns_per_id"] -
		(layer["core.process_emit_ns_per_id"] - layer["core.process_ns_per_id"]) -
		2*layer["subhub.publish_ns_per_id_sub1"] - 2*layer["netgossip.encode_ns_per_id"]

	tr.spanLogs = append(tr.spanLogs, probeLog)
	path, err := writeTrace(env.outDir, w.Name, tr.spanLogs, tr.dumps)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("# trace written to %s\n", path)
	fmt.Printf("# unsd.unaccounted_ns_per_id %.1f = daemon_cpu_ns_per_id %.1f - netgossip.decode_ns_per_id %.1f - shard.pushbatch_ns_per_id_p1 %.1f\n",
		layer["unsd.unaccounted_ns_per_id"], cpu, layer["netgossip.decode_ns_per_id"], layer["shard.pushbatch_ns_per_id_p1"])
	fmt.Printf("# unsd.unaccounted_fanout_ns_per_id %.1f = that - emit %.1f - 2 x subhub.publish_ns_per_id_sub1 %.1f - 2 x netgossip.encode_ns_per_id %.1f\n",
		layer["unsd.unaccounted_fanout_ns_per_id"], layer["core.process_emit_ns_per_id"]-layer["core.process_ns_per_id"],
		layer["subhub.publish_ns_per_id_sub1"], layer["netgossip.encode_ns_per_id"])
	return layer, tr, nil
}

// e2eMeasured keys a run's end-to-end numbers by the spec, in spec order.
func e2eMeasured(r *runResult) map[string]measured {
	m := map[string]measured{}
	for _, e := range endToEnd {
		m[e.Name] = measured{Value: r.e2e[e.Name], Unit: e.Unit, N: r.counts[e.Name]}
	}
	return m
}

func layerMeasured(layer map[string]float64) map[string]measured {
	m := map[string]measured{}
	for _, e := range perLayer {
		v := layer[e.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[e.Name] = measured{Value: v, Unit: e.Unit}
	}
	return m
}

func printMetrics(workload string, names []string, m map[string]measured) {
	for _, name := range names {
		v := m[name]
		line := fmt.Sprintf("%-16s %-38s %16.4f %s", workload, name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Println(line)
	}
}

func e2eNames() []string {
	var n []string
	for _, e := range endToEnd {
		n = append(n, e.Name)
	}
	return n
}

func layerNames() []string {
	var n []string
	for _, e := range perLayer {
		n = append(n, e.Name)
	}
	return n
}

func printRun(r *runResult) {
	a, f := r.totals()
	kinds := make([]string, 0, len(r.attempted))
	for k := range r.attempted {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("# %s: %s failed %d of %d attempted\n", r.workload, k, r.failed[k], r.attempted[k])
	}
	fmt.Printf("# %s: fail_share %.6f (sigma-prime draws included); result line: failed %d of %d attempted (ids and RPCs); %d connections\n", r.workload, r.failShare(), f, a, r.conns)
	for _, name := range []string{"client.push_ack_us_p99", "client.sample_rtt_us_p99", "client.sigma_lag_us_p99"} {
		fmt.Printf("# %s: %s %.1f us (n=%d), not gated\n", r.workload, name, r.layer[name], r.counts[name])
	}
	fmt.Printf("# %s: daemons used %.2f cores, generator %.2f cores, schedule lateness p99 %.0f us\n", r.workload,
		r.layer["unsd.cpu_cores"], r.genCores, r.layer["benchmark.sched_late_us_p99"])
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("# %s: check %s %-28s %s\n", r.workload, status, c.name, c.detail)
	}
	for _, g := range r.noisy {
		fmt.Printf("# %s: NOISY, reported all the same: %s\n", r.workload, g)
	}
	for _, g := range r.invalid {
		fmt.Printf("# %s: INVALID: %s\n", r.workload, g)
	}
}

func printEnv(o options, env *environment) {
	fmt.Printf("# nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s, seed %d, unsd build %.2f s\n",
		env.NProc, env.GoMaxProcs, env.GoVersion, env.Kernel, env.Commit, o.seed, env.BuildS)
	fmt.Printf("# frozen rates: sigma_fanout %d ids/s, gossip_mix %d ids/s, fleet_mixed %d ids/s + %d Sample/s, reference %d ids/s + %d Sample/s; at most 2 connections\n",
		sigmaFanoutRate, gossipMixRate, fleetMixedRate, fleetSampleRate, referenceRate, referenceSample)
}

// driverRun is one run as the driver asks for it: one workload, one seed,
// and as the last line of standard output the result object.
func driverRun(o options, env *environment) int {
	w := workloadByName(o.workload)
	if w == nil {
		return report(fmt.Errorf("unknown workload %q", o.workload))
	}
	printEnv(o, env)
	var (
		res     *runResult
		metrics map[string]measured
		err     error
	)
	if o.trace == 0 {
		if res, err = measure(w, o.seed, windowConfig(o, env, false)); err != nil {
			return report(err)
		}
		metrics = e2eMeasured(res)
		printMetrics(w.Name, e2eNames(), metrics)
	} else {
		var layer map[string]float64
		if layer, res, err = traced(w, o.seed, o, env); err != nil {
			return report(err)
		}
		metrics = layerMeasured(layer)
		printMetrics(w.Name, layerNames(), metrics)
	}
	printRun(res)
	attempted, failed := res.totals()
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{res.ok(), attempted, failed, map[string]out{}}
	for k, v := range metrics {
		line.Metrics[k] = out{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return report(err)
	}
	fmt.Println(string(b))
	if !res.ok() {
		fmt.Fprintln(os.Stderr, "benchmark: the run failed a check or could not measure a metric; daemon logs are under", env.outDir)
		return 1
	}
	return 0
}
