// Command unsbench regenerates the tables and figures of the paper's
// evaluation (Anceaume, Busnel, Sericola — DSN 2013).
//
// Usage:
//
//	unsbench -list
//	unsbench -run fig3
//	unsbench -run fig8,fig9 -trials 100
//	unsbench -run all -quick
//	unsbench -run tournament
//	unsbench -run table2,fig5,fig12 -trace access.log -trace-key url
//
// Each experiment prints a TSV block: a title line, a header row, data
// rows, and an optional note that compares the measured values with the
// paper's. tournament scores the knowledge-free sampler against four
// attack models at a fixed 16×4 reference point. -trace replaces the three
// synthetic Table II traces of table2, fig5 and fig12 with a real log in
// Common Log Format, keyed by requesting host or by request URL.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"nodesampling/internal/experiments"
	"nodesampling/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "unsbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("unsbench", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list experiment identifiers and exit")
		runIDs     = fs.String("run", "", "comma-separated experiment ids, or 'all'")
		trials     = fs.Int("trials", 10, "trials to average for simulation experiments (paper: 100)")
		seed       = fs.Uint64("seed", 1, "root random seed")
		quick      = fs.Bool("quick", false, "shrink streams and sweeps for a fast smoke run")
		workers    = fs.Int("workers", runtime.NumCPU(), "trial-level parallelism")
		perf       = fs.Bool("perf", false, "measure the service plane's hot paths and emit a JSON perf artifact")
		perfOut    = fs.String("perf-out", "-", "perf artifact path ('-' writes to stdout)")
		perfFilter = fs.String("perf-filter", "", "only run perf benchmarks whose name contains this substring")
		perfRuns   = fs.Int("perf-runs", 3, "runs per perf benchmark; the fastest is recorded (strips scheduler noise)")
		perfCmp    = fs.Bool("perf-compare", false, "compare two perf artifacts (args: old.json new.json) and fail on regressions above -perf-threshold")
		perfThresh = fs.Float64("perf-threshold", 5, "max tolerated slowdown percent for -perf-compare")
		traceLog   = fs.String("trace", "", "Common Log Format file that table2, fig5 and fig12 replay in place of the synthetic traces")
		traceKey   = fs.String("trace-key", "host", "identity field of -trace lines: host or url")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *perfCmp {
		if fs.NArg() != 2 {
			return fmt.Errorf("-perf-compare takes exactly two artifact paths, got %d args", fs.NArg())
		}
		return runPerfCompare(w, fs.Arg(0), fs.Arg(1), *perfThresh)
	}
	if *perf {
		return runPerf(w, *perfOut, *perfFilter, *perfRuns)
	}
	order, registry := experiments.Registry()
	if *list {
		for _, id := range order {
			fmt.Fprintln(w, id)
		}
		return nil
	}
	if *runIDs == "" {
		fs.Usage()
		return fmt.Errorf("nothing to run: pass -run <ids> or -list")
	}
	var ids []string
	if *runIDs == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if _, ok := registry[id]; !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			ids = append(ids, id)
		}
	}
	cfg := experiments.Config{
		Trials:  *trials,
		Seed:    *seed,
		Workers: *workers,
		Quick:   *quick,
	}
	if *traceLog != "" {
		tr, err := loadTrace(*traceLog, *traceKey)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		cfg.Trace = tr
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := registry[id](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := writeTable(w, tbl, time.Since(start)); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// loadTrace reads a Common Log Format file as a node-id trace, identifying
// nodes by key: "host" (the requesting host, the paper's semantics) or
// "url" (the request target).
func loadTrace(path, key string) (*trace.Trace, error) {
	field := trace.KeyRemoteHost
	switch key {
	case "host":
	case "url":
		field = trace.KeyRequestURL
	default:
		return nil, fmt.Errorf("unknown -trace-key %q (want host or url)", key)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ids, skipped, err := trace.ParseCommonLog(f, field)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "unsbench: -trace: skipped %d malformed lines\n", skipped)
	}
	return trace.FromIDs(ids)
}

func writeTable(w io.Writer, t experiments.Table, elapsed time.Duration) error {
	if _, err := fmt.Fprintf(w, "# %s [%s] (%.1fs)\n", t.ID, t.Title, elapsed.Seconds()); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	if t.Notes != "" {
		if _, err := fmt.Fprintf(w, "# note: %s\n", t.Notes); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
