package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling"
	"nodesampling/client"
	"nodesampling/internal/cluster"
	"nodesampling/internal/cms"
	"nodesampling/internal/core"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/rng"
	"nodesampling/internal/shard"
	"nodesampling/internal/subhub"
)

// Probes: the harness calls one layer's public functions in-process, on the
// workload's own pre-generated input, and times the call. They say what a
// layer costs alone; the scrapes say what it did under load. Only entry
// points ROADMAP item B keeps are used (README lists them), so a refactor
// knows exactly what the benchmark pins.

// prober runs probes: each is repeated reps times and reports the median
// time per operation, with one span per repetition.
type prober struct {
	reps  int
	scale int // divides every probe's work; > 1 for -quick
	log   *spanLog
	out   map[string]float64
}

// run runs fn reps times; fn does its work and returns how many operations
// that was. The result is the median nanoseconds per operation.
func (p *prober) run(name string, fn func() int) float64 {
	per := make([]float64, 0, p.reps)
	for i := 0; i < p.reps; i++ {
		start := time.Now()
		ops := fn()
		end := time.Now()
		p.log.addProbe(name, start, end)
		per = append(per, float64(end.Sub(start))/float64(ops))
	}
	return median(per)
}

// time is run with the result filed under the probe's name.
func (p *prober) time(name string, fn func() int) float64 {
	v := p.run(name, fn)
	p.out[name] = v
	return v
}

// probeInput is the workload's input in the shapes the layers take.
type probeInput struct {
	big   [][]uint64 // 1024-id batches
	small [][]uint64 // 16-id batches
}

func newProbeInput(in *input) probeInput {
	flat := make([]uint64, 0, 1<<18)
	for _, f := range in.frames {
		for _, id := range f {
			flat = append(flat, uint64(id))
		}
		if len(flat) >= 1<<18 {
			break
		}
	}
	var pi probeInput
	for i := 0; i+1024 <= len(flat); i += 1024 {
		pi.big = append(pi.big, flat[i:i+1024])
	}
	for i := 0; i+16 <= len(flat) && len(pi.small) < 4096; i += 16 {
		pi.small = append(pi.small, flat[i:i+16])
	}
	return pi
}

// loopReader replays a buffer of whole frames for ever.
type loopReader struct {
	buf []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.buf) {
		r.off = 0
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

func factory() (core.SamplerFactory, error) {
	return core.NewFactory(core.DefaultStrategy, core.StrategyParams{K: 50, S: 10})
}

func newPool(shards int) (*shard.Pool, error) {
	f, err := factory()
	if err != nil {
		return nil, err
	}
	// The daemon's own configuration: 64-batch rings, c = 25. Blocking, so a
	// probe measures work done, never work dropped.
	return shard.New(shard.Config{Shards: shards, Buffer: 64, Block: true, Seed: daemonSeed, Capacity: 25, Sampler: f})
}

// pushAll pushes every batch once and flushes, so the time covers the
// workers' processing, not just the hand-off.
func pushAll(p *shard.Pool, batches [][]uint64) int {
	n := 0
	for _, b := range batches {
		_ = p.PushBatch(b)
		n += len(b)
	}
	_ = p.Flush()
	return n
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runProbes fills layer with every probe metric for this workload's input.
func runProbes(w *workload, in *input, o options, layer map[string]float64, log *spanLog) error {
	// The probes are the layers alone, on every CPU the box has.
	if err := confineSelf(cpuRange(0, runtime.NumCPU())); err != nil {
		return err
	}
	p := &prober{reps: 5, scale: 1, log: log, out: layer}
	if o.quick {
		p.reps, p.scale = 1, 16
	}
	pi := newProbeInput(in)
	big := pi.big[:max(len(pi.big)/p.scale, 4)]
	small := pi.small[:max(len(pi.small)/p.scale, 64)]

	// netgossip: frame encode and decode.
	var wire []byte
	for _, b := range big {
		var err error
		if wire, err = netgossip.AppendFrame(wire, netgossip.Frame{Type: netgossip.FramePushBatch, IDs: b}); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 16384)
	p.time("netgossip.encode_ns_per_id", func() int {
		for _, b := range big {
			buf, _ = netgossip.AppendFrame(buf[:0], netgossip.Frame{Type: netgossip.FrameStreamData, IDs: b})
		}
		return 1024 * len(big)
	})
	fr := netgossip.NewFrameReader(&loopReader{buf: wire})
	p.time("netgossip.decode_ns_per_id", func() int {
		for range big {
			if _, err := fr.Read(); err != nil {
				panic(err) // the harness encoded these frames itself
			}
		}
		return 1024 * len(big)
	})
	var wireSmall []byte
	for _, b := range small {
		wireSmall, _ = netgossip.AppendFrame(wireSmall, netgossip.Frame{Type: netgossip.FramePushBatch, IDs: b})
	}
	frSmall := netgossip.NewFrameReader(&loopReader{buf: wireSmall})
	p.time("netgossip.decode_ns_per_frame_small", func() int {
		for range small {
			if _, err := frSmall.Read(); err != nil {
				panic(err)
			}
		}
		return len(small)
	})
	before := mallocs()
	for _, b := range small {
		_, _ = frSmall.Read()
		buf, _ = netgossip.AppendFrame(buf[:0], netgossip.Frame{Type: netgossip.FramePushBatch, IDs: b})
	}
	layer["netgossip.allocs_per_frame"] = float64(mallocs()-before) / float64(len(small))

	// cms and core: the sketch alone, then the sampler around it.
	sk, err := cms.NewWithDimensions(50, 10, rng.New(daemonSeed))
	if err != nil {
		return err
	}
	var sink uint64
	cmsNs := p.time("cms.add_estimate_ns_per_id", func() int {
		for _, b := range big {
			for _, id := range b {
				sink += sk.AddEstimate(id)
			}
		}
		return 1024 * len(big)
	})
	f, err := factory()
	if err != nil {
		return err
	}
	smp, err := f.New(25, rng.New(daemonSeed))
	if err != nil {
		return err
	}
	procNs := p.time("core.process_ns_per_id", func() int {
		for _, b := range big {
			smp.ProcessBatch(b)
		}
		return 1024 * len(big)
	})
	layer["core.admit_ns_per_id"] = procNs - cmsNs
	draws := make([]uint64, 0, 1024)
	p.time("core.process_emit_ns_per_id", func() int {
		for _, b := range big {
			draws = smp.ProcessBatchEmit(b, draws[:0])
		}
		return 1024 * len(big)
	})
	p.time("core.sample_n16_ns", func() int {
		for i := 0; i < 20000/p.scale; i++ {
			draws = smp.SampleN(sampleN, draws[:0])
		}
		return 20000 / p.scale
	})
	_ = sink

	// shard: the pool at the daemon's 4 shards, at 1 shard (whose cost over
	// core.process is the hand-off), with small batches, and Sample beside
	// a pusher.
	pool4, err := newPool(4)
	if err != nil {
		return err
	}
	defer pool4.Close()
	p.time("shard.pushbatch_ns_per_id", func() int { return pushAll(pool4, big) })
	p.time("shard.pushbatch_small_ns_per_batch", func() int { pushAll(pool4, small); return len(small) })
	pool1, err := newPool(1)
	if err != nil {
		return err
	}
	one := p.run("shard.pushbatch 1 shard", func() int { return pushAll(pool1, big) })
	_ = pool1.Close()
	layer["shard.handoff_ns_per_id"] = one - procNs
	p.time("shard.sample_n16_ns", func() int {
		for i := 0; i < 20000/p.scale; i++ {
			_ = pool4.SampleN(sampleN)
		}
		return 20000 / p.scale
	})
	var stop atomic.Bool
	var pushing sync.WaitGroup
	pushing.Add(1)
	go func() {
		defer pushing.Done()
		for i := 0; !stop.Load(); i++ {
			_ = pool4.PushBatch(big[i%len(big)])
		}
	}()
	p.time("shard.sample_n16_contended_ns", func() int {
		for i := 0; i < 20000/p.scale; i++ {
			_ = pool4.SampleN(sampleN)
		}
		return 20000 / p.scale
	})
	stop.Store(true)
	pushing.Wait()
	_ = pool4.Flush()

	// State: what a snapshot and a migration carry, and how long they take.
	var blob []byte
	layer["shard.snapshot_ms"] = p.run("shard.snapshot_ms", func() int {
		if blob, err = pool4.Snapshot(); err != nil {
			panic(err)
		}
		return 1
	}) / 1e6
	layer["shard.snapshot_bytes"] = float64(len(blob))
	target, err := newPool(4)
	if err != nil {
		return err
	}
	defer target.Close()
	all := func(uint64) bool { return true }
	var ids []uint64
	var state []byte
	layer["shard.export_import_ms"] = p.run("shard.export_import_ms", func() int {
		if ids, state, err = pool4.ExportState(all); err != nil {
			panic(err)
		}
		if err = target.ImportState(ids, state); err != nil {
			panic(err)
		}
		return 1
	}) / 1e6
	var mblob []byte
	layer["cluster.migration_codec_ms"] = p.run("cluster.migration_codec_ms", func() int {
		mblob, err = cluster.EncodeMigration(cluster.Migration{
			Epoch: 1, FromSlot: 0, ToSlot: shard.PlacementSlots - 1,
			Strategy: core.DefaultStrategy, IDs: ids, State: state,
		})
		if err != nil {
			panic(err)
		}
		if _, err = cluster.DecodeMigration(mblob); err != nil {
			panic(err)
		}
		return 1
	}) / 1e6
	layer["cluster.migration_blob_bytes"] = float64(len(mblob))

	// subhub: Publish with 1, 2 and 16 subscribers draining as fast as they
	// can; only the time inside Publish counts.
	var pub [3]float64
	for i, n := range []int{1, 2, 16} {
		hub := subhub.New()
		var drains sync.WaitGroup
		for s := 0; s < n; s++ {
			sub, err := hub.Subscribe(subCapacity)
			if err != nil {
				return err
			}
			drains.Add(1)
			go func() {
				defer drains.Done()
				for range sub.C() {
				}
			}()
		}
		pub[i] = p.time("subhub.publish_ns_per_id_sub"+strconv.Itoa(n), func() int {
			for _, b := range big {
				hub.Publish(b)
			}
			return 1024 * len(big)
		})
		hub.Close()
		drains.Wait()
	}
	layer["subhub.per_sub_ns_per_id"] = (pub[2] - pub[0]) / 15

	// cluster: routing a batch across three members.
	cl, err := cluster.New(cluster.Config{
		Members: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, Self: "127.0.0.1:1",
		Seed: daemonSeed, Fallback: func([]uint64) {},
	})
	if err != nil {
		return err
	}
	p.time("cluster.partition_ns_per_id", func() int {
		for _, b := range big {
			_, _ = cl.Partition(b)
		}
		return 1024 * len(big)
	})

	// client: what one PushBatch of the workload's frame allocates, against
	// a loopback peer that only reads.
	allocs, err := clientAllocs(in)
	if err != nil {
		return err
	}
	layer["client.allocs_per_push"] = allocs

	// The single-core baseline runs in a child, because GOMAXPROCS is
	// process-wide and the load generator needs its two.
	child := exec.Command(os.Args[0], "-probe-child", w.Name, "-seed", strconv.FormatUint(o.seed, 10), "-quick="+strconv.FormatBool(o.quick))
	child.Stderr = os.Stderr
	start := time.Now()
	outBytes, err := child.Output()
	if err != nil {
		return fmt.Errorf("probe child: %w", err)
	}
	log.addProbe("child GOMAXPROCS=1", start, time.Now())
	var fromChild map[string]float64
	if err := json.Unmarshal(outBytes, &fromChild); err != nil {
		return fmt.Errorf("probe child output: %w", err)
	}
	for k, v := range fromChild {
		layer[k] = v
	}
	return nil
}

// probeChild is the re-executed half: GOMAXPROCS=1, the 4-shard PushBatch
// probe, its result as JSON on standard output.
func probeChild(name string, seed uint64, quick bool) error {
	runtime.GOMAXPROCS(1)
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	p := &prober{reps: 5, scale: 1, out: map[string]float64{}}
	if quick {
		p.reps, p.scale = 1, 16
	}
	pi := newProbeInput(genInput(seed, w.push))
	big := pi.big[:max(len(pi.big)/p.scale, 4)]
	pool, err := newPool(4)
	if err != nil {
		return err
	}
	defer pool.Close()
	p.time("shard.pushbatch_ns_per_id_p1", func() int { return pushAll(pool, big) })
	return json.NewEncoder(os.Stdout).Encode(p.out)
}

// clientAllocs counts heap allocations per client.PushBatch of one frame.
func clientAllocs(in *input) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sink := make([]byte, 1<<16)
		for {
			if _, err := conn.Read(sink); err != nil {
				return
			}
		}
	}()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	const pushes = 2000
	frames := in.frames
	push := func(frame []nodesampling.NodeID) error { return c.PushBatch(frame) }
	if err := push(frames[0]); err != nil {
		return 0, err
	}
	before := mallocs()
	for i := 0; i < pushes; i++ {
		if err := push(frames[i%len(frames)]); err != nil {
			return 0, err
		}
	}
	return float64(mallocs()-before) / pushes, nil
}

// sampleLocalUnderLoad times the raw member-to-member FrameSampleLocal
// exchange against one daemon while connection A pushes the workload's
// load: the floor under a cluster-wide Sample, which waits for every member.
// Median microseconds over one second of back-to-back calls.
func sampleLocalUnderLoad(w *workload, in *input, cfg runConfig) (float64, error) {
	fl, connA, _, err := bringUp(w, in, cfg)
	if err != nil {
		return 0, err
	}
	defer fl.kill()
	defer connA.Close()
	conn, err := net.Dial("tcp", fl.ds[w.sample.target].stream)
	if err != nil {
		return 0, err
	}
	defer conn.Close()

	spec := w.push
	spec.ackEvery = 0
	t0 := time.Now().Add(50 * time.Millisecond)
	push := &pusher{c: connA, in: in, spec: spec, late: newRecorder(t0, time.Hour, 1, 0), ackq: make(chan ackReq)}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() { defer close(done); push.run(t0, &stop) }()
	defer func() { stop.Store(true); <-done }()

	dur := time.Second
	if cfg.window < dur {
		dur = cfg.window
	}
	fr := netgossip.NewFrameReader(conn)
	req, err := netgossip.AppendFrame(nil, netgossip.Frame{Type: netgossip.FrameSampleLocal, N: sampleN})
	if err != nil {
		return 0, err
	}
	var us []float64
	warm := t0.Add(200 * time.Millisecond)
	for end := warm.Add(dur); time.Now().Before(end); {
		start := time.Now()
		if _, err := conn.Write(req); err != nil {
			return 0, err
		}
		f, err := fr.Read()
		if err != nil {
			return 0, err
		}
		if f.Type != netgossip.FrameSampleLocalResp || len(f.IDs) != sampleN {
			return 0, fmt.Errorf("raw local Sample answered frame type %d with %d ids", f.Type, len(f.IDs))
		}
		if start.After(warm) {
			us = append(us, float64(time.Since(start))/1e3)
		}
		// Paced like a member's share of the fleet's Sample traffic, not a
		// closed loop that would itself be the load.
		time.Sleep(time.Second / fleetSampleRate)
	}
	if len(us) == 0 {
		return 0, fmt.Errorf("raw local Sample: no exchange completed")
	}
	sort.Float64s(us)
	return nearestRank(us, 0.5), nil
}
