package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling/client"
	"nodesampling/internal/cluster"
	"nodesampling/internal/telemetry"
)

// runConfig is one measured window's shape.
type runConfig struct {
	unsd   string
	outDir string
	window time.Duration
	slices int
	warmup time.Duration
	setups int
	traced bool // daemons at -trace-sample 64, harness spans on, queue gauges polled
	guards bool // validity guards; off for -quick, whose windows are too short to judge
}

// runResult is what one window measured. e2e and layer are keyed by the
// metric names of spec.go and hold only what the window exercised; counts
// holds the sample count behind each latency.
type runResult struct {
	workload  string
	e2e       map[string]float64
	layer     map[string]float64
	counts    map[string]int
	attempted map[string]int64 // per kind: ingest ids, sigma draws, rpcs
	failed    map[string]int64
	checks    []check
	invalid   []string // metrics the window could not measure: the run fails
	noisy     []string // validity guards that tripped: the window is run again
	spanLogs  []*spanLog
	dumps     [][]byte // each daemon's GET /trace
	conns     int
	genCores  float64 // CPUs the generator process used over the window
}

func (r *runResult) ok() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.invalid) == 0
}

// totals is what the driver's result line carries: the operations the service
// owes an outcome — every id pushed (failed: dropped at a shard ring) and
// every request/response exchange (failed: error, timeout, short or foreign
// answer, a member missing from a cluster answer). Sigma-prime draws are not
// among them: the daemon sheds draws by design rather than slow ingestion
// (shard.Pool.emit, subhub's drop-oldest), it does so whenever frames arrive
// in a burst, and on a shared host a burst follows any stall, so whether a
// given run lost a batch is the host's doing: two sets of runs of one commit
// disagreed on it. Lost draws stay in fail_share, in sigma_ids_per_s (a draw
// lost is a draw not delivered) and in the exact accounting of check (a).
func (r *runResult) totals() (attempted, failed int64) {
	for k, v := range r.attempted {
		if !strings.HasSuffix(k, sigmaDraws) {
			attempted += v
			failed += r.failed[k]
		}
	}
	return attempted, failed
}

// sigmaDraws is the kind under which offered and lost sigma-prime draws are
// counted ("reference."-prefixed for the reference window's).
const sigmaDraws = "sigma_draws"

// failShare is the issue's fail_share: the worst kind's failed / attempted,
// sigma-prime draws included.
func (r *runResult) failShare() float64 {
	worst := 0.0
	for k, a := range r.attempted {
		if a > 0 {
			worst = max(worst, float64(r.failed[k])/float64(a))
		}
	}
	return worst
}

// subCapacity is what every subscription asks for: the daemon's own maximum.
const subCapacity = 65536

// fillFrames frames of the workload's own input are pushed during set-up, in
// steps of fillStep with the daemon's processed count awaited in between. It
// leaves every shard's memory full.
const (
	fillFrames = 256
	fillStep   = 64
)

// processedAndDropped sums the pools' two ingest counters over the fleet and
// reports whether every shard's memory holds c = 25 ids.
func (f *fleet) processedAndDropped() (done uint64, full bool, err error) {
	full = true
	for _, d := range f.ds {
		s, err := d.scrape()
		if err != nil {
			return 0, false, err
		}
		p, _ := s.Value("unsd_pool_processed_ids_total")
		q, _ := s.Value("unsd_pool_dropped_ids_total")
		done += uint64(p + q)
		if fam := s.Family("unsd_shard_memory_ids"); fam != nil {
			for _, smp := range fam.Samples {
				full = full && smp.Value >= 25
			}
		}
	}
	return done, full, nil
}

// bringUp is what setup_s times: spawn, every listener answering, the fleet
// fully meshed, then the fill.
func bringUp(w *workload, in *input, cfg runConfig) (*fleet, *client.Client, uint64, error) {
	traceSample := 0
	if cfg.traced {
		traceSample = 64
	}
	fl, err := spawnFleet(cfg.unsd, w, boxPlacement(), traceSample)
	if err != nil {
		return nil, nil, 0, err
	}
	fail := func(err error) (*fleet, *client.Client, uint64, error) {
		fl.saveLogs(cfg.outDir, w.Name)
		fl.kill()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := fl.ready(); err != nil {
		return fail(err)
	}
	a, err := client.Dial(fl.ds[w.push.target].stream)
	if err != nil {
		return fail(err)
	}
	if err := a.Ping(); err != nil {
		return fail(err)
	}
	// The fill replays the tail of the cycle, so the measured schedule can
	// start at frame 0.
	n := len(in.frames)
	deadline := time.Now().Add(readyTimeout)
	for f := 1; f <= fillFrames; f++ {
		if err := a.PushBatch(in.frames[n-f]); err != nil {
			return fail(err)
		}
		if f%fillStep != 0 {
			continue
		}
		for {
			done, full, err := fl.processedAndDropped()
			if err != nil {
				return fail(err)
			}
			if done == uint64(f*in.frame) && (full || f < fillFrames) {
				break
			}
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("fill never settled: %d of %d ids accounted, memories full %v", done, f*in.frame, full))
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return fl, a, uint64(fillFrames * in.frame), nil
}

// snapshot is the state of the world at one edge of the measured window.
type snapshot struct {
	at      time.Time
	scrapes []*telemetry.Scrape
	cpu     []time.Duration
	self    time.Duration
	ids     uint64 // ids connection A has sent
	pushNs  int64
	samples uint64
	recv    []uint64
}

// daemonCPU is the CPU time all daemons have used.
func (s *snapshot) daemonCPU() time.Duration {
	var t time.Duration
	for _, c := range s.cpu {
		t += c
	}
	return t
}

// total sums a family over every daemon (and every label set).
func (s *snapshot) total(name string) float64 {
	var t float64
	for _, scr := range s.scrapes {
		v, _ := scr.Sum(name)
		t += v
	}
	return t
}

// load is the generator side of one window: the roles the workload has.
type load struct {
	fl    *fleet
	conns [2]*client.Client // connection A, connection B (nil when unused)
	push  *pusher
	smp   *sampler // nil without Sample traffic
	subs  []*subscriber
}

func (l *load) snapshot() (*snapshot, error) {
	s := &snapshot{ids: l.push.idsSent(), pushNs: l.push.pushNs.Load()}
	if l.smp != nil {
		s.samples = l.smp.done.Load()
	}
	for _, sub := range l.subs {
		s.recv = append(s.recv, sub.received.Load())
	}
	var err error
	if s.self, err = procCPU(os.Getpid()); err != nil {
		return nil, err
	}
	for _, d := range l.fl.ds {
		c, err := procCPU(d.pid())
		if err != nil {
			return nil, err
		}
		scr, err := d.scrape()
		if err != nil {
			return nil, err
		}
		s.cpu = append(s.cpu, c)
		s.scrapes = append(s.scrapes, scr)
	}
	s.at = time.Now()
	return s, nil
}

// close closes the load's connections; safe to call twice.
func (l *load) close() {
	for _, c := range l.conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// resync tells every subscriber how many of its draws were lost so far, from
// one scrape per daemon (nil where the scrape failed).
func (l *load) resync(w *workload, scrapes []*telemetry.Scrape) {
	for i, s := range w.subs {
		scr := scrapes[w.subDaemon(s)]
		if scr == nil {
			continue
		}
		ring, _ := scr.Value("unsd_pool_dropped_ids_total")
		emit, _ := scr.Value("unsd_pool_emit_dropped_ids_total")
		hub, _ := scr.Value("unsd_subscriber_dropped_ids_total", "subscriber", l.subID(w, i))
		l.subs[i].lost.Store(uint64(ring+emit+hub) + l.conns[s.conn].StreamDropped())
	}
}

// subID is the daemon's label for the workload's i-th subscription: ids count
// up from 1 per daemon, in subscribe order.
func (l *load) subID(w *workload, i int) string {
	n := 0
	for _, s := range w.subs[:i+1] {
		if w.subDaemon(s) == w.subDaemon(w.subs[i]) {
			n++
		}
	}
	return strconv.Itoa(n)
}

// maxLateUs is the lateness guard: the schedule's lateness p99 (median over
// slices) beyond which a run is refused. The issue drew the line at 2 ms, for
// gated p99s; with only medians gated, a frame in a hundred a few
// milliseconds late moves nothing reported, and on the reference box 2 ms
// refused 15 runs of 44 in a noisy hour. Lateness is printed either way.
const maxLateUs = 10000

// loadLead is how long before t0 the roles are built: everything allocates
// and subscribes first, because a pusher starting late would open with a
// burst no schedule asked for. Building takes 20 ms; the rest is room for a
// stall of the host, which would otherwise fail the run.
const loadLead = 500 * time.Millisecond

// runWindow brings the workload's daemons up, runs the load through warm-up
// and one measured window, drains, checks, and tears everything down.
func runWindow(w *workload, in *input, cfg runConfig) (*runResult, error) {
	res := &runResult{
		workload:  w.Name,
		e2e:       map[string]float64{},
		layer:     map[string]float64{},
		counts:    map[string]int{},
		attempted: map[string]int64{},
		failed:    map[string]int64{},
	}

	if err := confineSelf(boxPlacement().generator); err != nil {
		return nil, err
	}

	// Set-up, several times over; the last one stays up for the run.
	var (
		setups []float64
		fl     *fleet
		connA  *client.Client
		filled uint64
		err    error
	)
	for i := 0; i < cfg.setups; i++ {
		began := time.Now()
		if fl, connA, filled, err = bringUp(w, in, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(began).Seconds())
		if i < cfg.setups-1 {
			_ = connA.Close()
			fl.kill()
		}
	}
	res.e2e["setup_s"] = median(setups)
	res.counts["setup_s"] = len(setups)
	defer fl.kill()
	defer func() {
		if !res.ok() {
			fl.saveLogs(cfg.outDir, w.Name)
		}
	}()

	ld := &load{fl: fl}
	ld.conns[0] = connA
	res.conns = 1
	needB := !w.sample.off
	for _, s := range w.subs {
		needB = needB || s.conn == 1
	}
	if needB {
		if ld.conns[1], err = client.Dial(fl.ds[w.sample.target].stream); err != nil {
			return nil, err
		}
		res.conns = 2
	}
	defer ld.close()

	t0 := time.Now().Add(loadLead)
	winStart := t0.Add(cfg.warmup)
	winEnd := winStart.Add(cfg.window)
	sliceSec := cfg.window.Seconds() / float64(cfg.slices)
	rec := func(perSec float64) *recorder {
		return newRecorder(winStart, cfg.window, cfg.slices, int(perSec*sliceSec*1.2)+64)
	}
	frameHz := 20000.0 // closed loop: generous
	if w.push.rate > 0 {
		frameHz = float64(w.push.rate) / float64(w.push.frame)
	}

	push := &pusher{
		c: connA, in: in, spec: w.push,
		spans: newSpanLog(cfg.traced, "push"),
		late:  rec(frameHz),
		ackq:  make(chan ackReq, 4096), // a second or more of pending acks before one counts as lost
	}
	ld.push = push
	ackLat := rec(frameHz / float64(max(w.push.ackEvery, 1)))
	ackSpans := newSpanLog(cfg.traced, "ack")
	var ackStats rpcStats

	// Subscribe, and make sure each subscription is registered (the Pong
	// follows the Subscribe on the same connection) before a single measured
	// id is pushed: from here on every processed id offers one draw.
	for i, s := range w.subs {
		c := ld.conns[s.conn]
		ch, err := c.SubscribeEvery(subCapacity, s.every)
		if err != nil {
			return nil, err
		}
		if err := c.Ping(); err != nil {
			return nil, err
		}
		cum, err := cumOffered(w, in, fl, w.subDaemon(s))
		if err != nil {
			return nil, err
		}
		ld.subs = append(ld.subs, &subscriber{
			ch: ch, in: in, every: uint64(s.every), push: push, cum: cum,
			spans: newSpanLog(cfg.traced, fmt.Sprintf("sigma %d", i)),
			lag:   rec(frameHz),
			hist:  make([]uint64, in.pop),
		})
	}
	if !w.sample.off {
		sampleHz := 40000.0 // closed loop: generous
		if w.sample.rate > 0 {
			sampleHz = float64(w.sample.rate)
		}
		ld.smp = &sampler{
			c: ld.conns[1], in: in, rate: w.sample.rate,
			spans: newSpanLog(cfg.traced, "sample"),
			rtt:   rec(sampleHz), late: rec(sampleHz),
		}
	}
	if !time.Now().Before(t0) {
		return nil, fmt.Errorf("building the load took longer than the %v allowed before t0", loadLead)
	}

	var stop atomic.Bool
	var loops, subLoops sync.WaitGroup
	loops.Add(2)
	go func() { defer loops.Done(); push.run(t0, &stop) }()
	go func() { defer loops.Done(); acker(connA, push.ackq, ackLat, &ackStats, ackSpans) }()
	if ld.smp != nil {
		loops.Add(1)
		go func() { defer loops.Done(); ld.smp.run(t0, &stop) }()
	}
	for _, s := range ld.subs {
		subLoops.Add(1)
		go func() { defer subLoops.Done(); s.run() }()
	}

	// While the load runs the daemons are scraped once a second, to tell the
	// subscribers what was lost, and on traced runs four times a second
	// inside the window, for the queue gauges a scrape at the window's edges
	// would miss.
	var maxQueue, maxSubDepth float64
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for tick := 1; !stop.Load(); tick++ {
			time.Sleep(250 * time.Millisecond)
			now := time.Now()
			resync := tick%4 == 0 && len(ld.subs) > 0
			gauges := cfg.traced && !now.Before(winStart) && now.Before(winEnd)
			if !resync && !gauges {
				continue
			}
			scrapes := make([]*telemetry.Scrape, len(fl.ds))
			for i, d := range fl.ds {
				scrapes[i], _ = d.scrape()
			}
			if resync {
				ld.resync(w, scrapes)
			}
			for _, scr := range scrapes {
				if scr == nil || !gauges {
					continue
				}
				v, _ := scr.Value("unsd_pool_queue_max_depth_batches")
				maxQueue = max(maxQueue, v)
				if fam := scr.Family("unsd_subscriber_queue_depth_ids"); fam != nil {
					for _, smp := range fam.Samples {
						maxSubDepth = max(maxSubDepth, smp.Value)
					}
				}
			}
		}
	}()

	// One snapshot at every slice boundary: a rate or CPU metric is the
	// median over slices of the slice's value, like the latencies, so that a
	// second in which the host stalled moves it by at most one rank.
	edges := make([]*snapshot, cfg.slices+1)
	for i := range edges {
		time.Sleep(time.Until(winStart.Add(time.Duration(i) * cfg.window / time.Duration(cfg.slices))))
		if edges[i], err = ld.snapshot(); err != nil {
			return nil, err
		}
	}
	s0, s1 := edges[0], edges[cfg.slices]
	perSlice := func(f func(a, b *snapshot) float64) float64 {
		v := make([]float64, cfg.slices)
		for i := range v {
			v[i] = f(edges[i], edges[i+1])
		}
		return median(v)
	}
	stop.Store(true)
	loops.Wait()
	<-watchDone
	if push.err != nil {
		return nil, fmt.Errorf("push: %w", push.err)
	}
	if ld.smp != nil && ld.smp.err != nil {
		return nil, fmt.Errorf("sample: %w", ld.smp.err)
	}

	// Drain: once connection A's Pong is back the daemon has read every
	// frame; then wait for the counters to account for every id and for the
	// subscribers to have received what was delivered.
	if err := connA.Ping(); err != nil {
		return nil, err
	}
	cnt, final, err := drain(w, ld, filled+push.idsSent())
	if err != nil {
		return nil, err
	}
	// Misplaced ids were ingested on member 0, so the prediction of what
	// another member was offered holds only without fallback.
	if final.total("unsd_cluster_fallback_ids_total") == 0 {
		for i, s := range w.subs {
			// Ids a shard ring dropped were never processed and drew nothing.
			cnt.subs[i].expected = ld.subs[i].cum(push.frames.Load()) - cnt.dropped[w.subDaemon(s)]
		}
	}
	if cfg.traced {
		for _, d := range fl.ds {
			dump, err := d.traceEvents()
			if err != nil {
				return nil, err
			}
			res.dumps = append(res.dumps, dump)
		}
	}
	ld.close() // ends the subscriptions, and with them the subscribers' loops
	subLoops.Wait()

	// Output quality, from what the subscribers actually received.
	outHist := make([]uint64, in.pop)
	var strangers uint64
	for _, s := range ld.subs {
		strangers += s.strangers
		for i, c := range s.hist {
			outHist[i] += c
		}
	}
	cnt.klIn, cnt.klOut = klToUniform(in.hist), klToUniform(outHist)
	cnt.badSamples = int64(strangers)
	if ld.smp != nil {
		cnt.badSamples += ld.smp.st.failed
	}
	res.checks = runChecks(cnt)

	// End-to-end metrics. ids is what connection A offered over the window.
	dt := s1.at.Sub(s0.at).Seconds()
	ids := float64(s1.ids - s0.ids)
	var rssKiB int64
	for _, d := range fl.ds {
		kib, err := procPeakRSS(d.pid())
		if err != nil {
			return nil, err
		}
		rssKiB += kib
	}
	res.e2e["ingest_ids_per_s"] = perSlice(func(a, b *snapshot) float64 {
		return (b.total("unsd_pool_processed_ids_total") - a.total("unsd_pool_processed_ids_total")) / b.at.Sub(a.at).Seconds()
	})
	res.e2e["daemon_cpu_ns_per_id"] = perSlice(func(a, b *snapshot) float64 {
		return float64(b.daemonCPU()-a.daemonCPU()) / float64(b.ids-a.ids)
	})
	res.e2e["daemon_rss_mib"] = float64(rssKiB) / 1024
	// A latency is gated at its median; its p99 is a per-layer number (spec.go
	// says why).
	latency := func(r *recorder, name string) {
		if n := r.count(); n > 0 {
			res.e2e[name+"_p50"], res.counts[name+"_p50"] = r.pct(0.50), n
			res.layer["client."+name+"_p99"], res.counts["client."+name+"_p99"] = r.pct(0.99), n
		}
	}
	latency(ackLat, "push_ack_us")
	if ld.smp != nil {
		latency(ld.smp.rtt, "sample_rtt_us")
		res.layer["client.samples_per_s"] = perSlice(func(a, b *snapshot) float64 {
			return float64(b.samples-a.samples) / b.at.Sub(a.at).Seconds()
		})
	}
	if len(ld.subs) > 0 {
		latency(mergeRecorders(ld.subs), "sigma_lag_us")
		res.e2e["sigma_ids_per_s"] = perSlice(func(a, b *snapshot) float64 {
			return float64(sum(b.recv)-sum(a.recv)) / b.at.Sub(a.at).Seconds()
		})
	}

	// Failures against attempts, per kind, over the whole run.
	res.attempted["ingest_ids"] = int64(push.idsSent())
	res.failed["ingest_ids"] = int64(sum(cnt.dropped))
	for _, s := range cnt.subs {
		res.attempted[sigmaDraws] += int64(s.offered + s.emitDropped)
		res.failed[sigmaDraws] += int64(s.dropped + s.clientDropped + s.emitDropped)
	}
	res.attempted["rpcs"] = ackStats.attempted + push.ackLost.Load()
	res.failed["rpcs"] = ackStats.failed + push.ackLost.Load() + int64(cnt.memberMisses)
	if ld.smp != nil {
		res.attempted["rpcs"] += ld.smp.st.attempted
		res.failed["rpcs"] += ld.smp.st.failed
	}

	// Per-layer numbers a scrape or the harness can see.
	l := res.layer
	scrapeLayers(l, w, s0, s1, ids)
	l["unsd.cpu_cores"] = (s1.daemonCPU() - s0.daemonCPU()).Seconds() / dt
	l["client.push_ns_per_id"] = float64(s1.pushNs-s0.pushNs) / ids
	l["client.cpu_ns_per_id"] = float64(s1.self-s0.self) / ids
	for _, s := range cnt.subs {
		l["client.stream_dropped_ids"] += float64(s.clientDropped)
	}
	l["shard.queue_max_depth_batches"] = maxQueue
	l["subhub.queue_depth_ids"] = maxSubDepth
	if len(ld.subs) > 0 {
		l["unsd.output_kl"] = cnt.klOut
		l["unsd.g_kl"] = gain(cnt.klIn, cnt.klOut)
	}
	late := 0.0
	if w.push.rate > 0 {
		late = push.late.pct(0.99)
	}
	if ld.smp != nil && w.sample.rate > 0 {
		late = max(late, ld.smp.late.pct(0.99))
	}
	l["benchmark.sched_late_us_p99"] = late
	res.genCores = (s1.self - s0.self).Seconds() / dt

	// Validity guards: a window the generator or the host distorted is run
	// again (guarded), not reported as it stands.
	if cfg.guards {
		if late > maxLateUs {
			res.noisy = append(res.noisy, fmt.Sprintf("generator lateness p99 %.0f us exceeds %d us", late, maxLateUs))
		}
		if res.genCores > 1 {
			res.noisy = append(res.noisy, fmt.Sprintf("generator used %.2f cores (client.cpu_ns_per_id x rate exceeds one core)", res.genCores))
		}
		if w.push.rate > 0 {
			if got := ids / dt; got < 0.99*float64(w.push.rate) {
				res.noisy = append(res.noisy, fmt.Sprintf("achieved %.0f ids/s, under 99 %% of the offered %d", got, w.push.rate))
			}
		}
	}
	res.spanLogs = []*spanLog{push.spans, ackSpans}
	if ld.smp != nil {
		res.spanLogs = append(res.spanLogs, ld.smp.spans)
	}
	for _, s := range ld.subs {
		res.spanLogs = append(res.spanLogs, s.spans)
	}
	return res, nil
}

// scrapeLayers files the per-layer numbers that are deltas of the daemons'
// own counters and histograms over the window; ids is what connection A
// offered in it.
func scrapeLayers(l map[string]float64, w *workload, s0, s1 *snapshot, ids float64) {
	delta := func(name string) float64 { return s1.total(name) - s0.total(name) }
	l["shard.skew_max_share"] = skew(s0, s1)
	l["shard.dropped_ids"] = delta("unsd_pool_dropped_ids_total")
	if off := delta("unsd_subscriber_offered_ids_total"); off > 0 {
		l["subhub.dropped_share"] = delta("unsd_subscriber_dropped_ids_total") / off
	}
	l["cluster.forwarded_share"] = delta("unsd_cluster_forwarded_ids_total") / ids
	l["cluster.fallback_share"] = delta("unsd_cluster_fallback_ids_total") / ids
	if fan := delta("unsd_cluster_sample_fanouts_total"); fan > 0 {
		l["cluster.sample_member_miss_share"] = delta("unsd_cluster_sample_member_misses_total") / (fan * float64(w.daemons-1))
	}
	l["unsd.ingest_batch_us_p50"] = histQuantile(s0, s1, "unsd_ingest_batch_duration_seconds", 0.50)
	l["unsd.ingest_batch_us_p99"] = histQuantile(s0, s1, "unsd_ingest_batch_duration_seconds", 0.99)
	l["unsd.sample_us_p50"] = histQuantile(s0, s1, "unsd_sample_duration_seconds", 0.50)
	l["unsd.emit_delivery_lag_us_p50"] = histQuantile(s0, s1, "unsd_emit_delivery_lag_seconds", 0.50)
	l["unsd.emit_delivery_lag_us_p99"] = histQuantile(s0, s1, "unsd_emit_delivery_lag_seconds", 0.99)
}

// subDaemon is the daemon a subscription's connection dials.
func (w *workload) subDaemon(s subSpec) int {
	if s.conn == 0 {
		return w.push.target
	}
	return w.sample.target
}

// cumOffered returns, for a subscription on daemon di, how many draws it has
// been offered once a given number of frames is processed: every id on a
// standalone daemon, the ids that member owns in a fleet — computed with the
// fleet's own routing function over the same member list and seed.
func cumOffered(w *workload, in *input, fl *fleet, di int) (func(frames uint64) uint64, error) {
	n := uint64(len(in.frames))
	if w.daemons == 1 {
		frame := uint64(in.frame)
		return func(frames uint64) uint64 { return frames * frame }, nil
	}
	members := make([]string, len(fl.ds))
	for i, d := range fl.ds {
		members[i] = d.stream
	}
	cl, err := cluster.New(cluster.Config{
		Members: members, Self: members[di], Seed: daemonSeed,
		Fallback: func([]uint64) {},
	})
	if err != nil {
		return nil, err
	}
	prefix := make([]uint64, n+1)
	for f, ids := range in.frames {
		owned := uint64(0)
		for _, id := range ids {
			if cl.OwnerOf(uint64(id)) == cl.SelfIndex() {
				owned++
			}
		}
		prefix[f+1] = prefix[f] + owned
	}
	return func(frames uint64) uint64 { return frames/n*prefix[n] + prefix[frames%n] }, nil
}

// drain waits until the daemons account for every id sent and the
// subscribers hold everything delivered, then returns the final counters.
func drain(w *workload, ld *load, sent uint64) (counters, *snapshot, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := &snapshot{}
		for _, d := range ld.fl.ds {
			scr, err := d.scrape()
			if err != nil {
				return counters{}, nil, err
			}
			snap.scrapes = append(snap.scrapes, scr)
		}
		c := counters{workload: w.Name, sent: sent}
		for _, scr := range snap.scrapes {
			p, _ := scr.Value("unsd_pool_processed_ids_total")
			d, _ := scr.Value("unsd_pool_dropped_ids_total")
			c.processed = append(c.processed, uint64(p))
			c.dropped = append(c.dropped, uint64(d))
		}
		settled := sum(c.processed)+sum(c.dropped) == sent
		for i, s := range w.subs {
			di := w.subDaemon(s)
			id := ld.subID(w, i)
			scr := snap.scrapes[di]
			get := func(name string) uint64 {
				v, _ := scr.Value(name, "subscriber", id)
				return uint64(v)
			}
			emit, _ := scr.Value("unsd_pool_emit_dropped_ids_total")
			sc := subCounters{
				offered:       get("unsd_subscriber_offered_ids_total"),
				delivered:     get("unsd_subscriber_delivered_ids_total"),
				dropped:       get("unsd_subscriber_dropped_ids_total"),
				filtered:      get("unsd_subscriber_filtered_ids_total"),
				depth:         get("unsd_subscriber_queue_depth_ids"),
				received:      ld.subs[i].received.Load(),
				clientDropped: ld.conns[s.conn].StreamDropped(),
				emitDropped:   uint64(emit),
			}
			c.subs = append(c.subs, sc)
			settled = settled && sc.depth == 0 && sc.received+sc.clientDropped == sc.delivered
		}
		if w.daemons > 1 {
			fwd, _ := snap.scrapes[w.push.target].Sum("unsd_cluster_forwarded_ids_total")
			c.forwarded = uint64(fwd)
			c.memberMisses = uint64(snap.total("unsd_cluster_sample_member_misses_total"))
		}
		if settled || time.Now().After(deadline) {
			return c, snap, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// mergeRecorders pools the subscribers' lag samples slice by slice.
func mergeRecorders(subs []*subscriber) *recorder {
	m := &recorder{start: subs[0].lag.start, slice: subs[0].lag.slice, slices: make([][]float64, len(subs[0].lag.slices))}
	for _, s := range subs {
		for i, v := range s.lag.slices {
			m.slices[i] = append(m.slices[i], v...)
		}
	}
	return m
}

// skew is the busiest shard's share of the ids processed in the window.
func skew(s0, s1 *snapshot) float64 {
	var total, worst float64
	for di := range s1.scrapes {
		fam := s1.scrapes[di].Family("unsd_shard_processed_ids_total")
		if fam == nil {
			continue
		}
		for _, smp := range fam.Samples {
			before, _ := s0.scrapes[di].Value("unsd_shard_processed_ids_total", "shard", smp.Labels[0].Value)
			d := smp.Value - before
			total += d
			worst = max(worst, d)
		}
	}
	if total == 0 {
		return 0
	}
	return worst / total
}

// histQuantile reads a quantile, in microseconds, off the window's delta of
// one of the daemons' own latency histograms (summed over daemons), by
// linear interpolation inside the bucket. 0 when nothing was observed.
func histQuantile(s0, s1 *snapshot, name string, q float64) float64 {
	var bounds, counts []float64
	for di := range s1.scrapes {
		h1 := s1.scrapes[di].Histogram(name)
		h0 := s0.scrapes[di].Histogram(name)
		if h1 == nil || h0 == nil || len(h0.Buckets) != len(h1.Buckets) {
			continue
		}
		if counts == nil {
			counts = make([]float64, len(h1.Buckets))
			for _, b := range h1.Buckets {
				bounds = append(bounds, b.UpperBound)
			}
		}
		for i := range h1.Buckets {
			counts[i] += h1.Buckets[i].Count - h0.Buckets[i].Count // cumulative
		}
	}
	if len(counts) == 0 || counts[len(counts)-1] == 0 {
		return 0
	}
	rank := q * counts[len(counts)-1]
	for i, c := range counts {
		if c >= rank {
			lo, below := 0.0, 0.0
			if i > 0 {
				lo, below = bounds[i-1], counts[i-1]
			}
			hi := bounds[i]
			if math.IsInf(hi, 1) {
				return lo * 1e6
			}
			return (lo + (hi-lo)*(rank-below)/(c-below)) * 1e6
		}
	}
	return 0
}
