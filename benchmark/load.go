package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"time"

	"nodesampling"
	"nodesampling/client"
)

// input is a workload's pre-generated id stream: a cycle of equal-sized
// frames over a contiguous population base+1..base+pop, built from the seed
// before the clock starts. The daemons salt and hash every id, so contiguous
// ids cost nothing in realism and make membership a range check.
type input struct {
	base   uint64
	pop    int
	frame  int
	frames [][]nodesampling.NodeID
	hist   []uint32 // ids per population index over one cycle
}

// cycleIDs is how many ids one replayed cycle holds: a few seconds of the
// fastest workload, so the replay period is far longer than any queue.
const cycleIDs = 1 << 22

func genInput(seed uint64, p pushSpec) *input {
	r := rand.New(rand.NewPCG(seed, 0x756e73626e6368)) // "unsbnch"
	in := &input{
		base:  r.Uint64() >> 1, // room above for the population
		pop:   p.pop,
		frame: p.frame,
		hist:  make([]uint32, p.pop),
	}
	n := cycleIDs / p.frame
	backing := make([]nodesampling.NodeID, n*p.frame)
	for i := range backing {
		idx := r.IntN(p.pop)
		if p.dist == flood && r.Float64() < 0.8 {
			idx = 0 // the victim
		}
		in.hist[idx]++
		backing[i] = nodesampling.NodeID(in.base + 1 + uint64(idx))
	}
	in.frames = make([][]nodesampling.NodeID, n)
	for i := range in.frames {
		in.frames[i] = backing[i*p.frame : (i+1)*p.frame : (i+1)*p.frame]
	}
	return in
}

// index maps an id back to its population index, or -1 for a stranger.
func (in *input) index(id nodesampling.NodeID) int {
	d := uint64(id) - in.base - 1
	if d >= uint64(in.pop) {
		return -1
	}
	return int(d)
}

// klToUniform is D_KL(p || uniform over len(counts)) in nats, the divergence
// the paper and the daemon's live gauge use.
func klToUniform[T uint32 | uint64](counts []T) float64 {
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	logN := math.Log(float64(len(counts)))
	d := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / total
			d += p * (math.Log(p) + logN)
		}
	}
	return max(d, 0)
}

// recorder keeps latency samples (in microseconds) per slice of the
// measured window. A latency metric is the median over slices of the slice's
// percentile, so one noisy second moves it by at most one rank.
type recorder struct {
	start  time.Time
	slice  time.Duration
	slices [][]float64
}

func newRecorder(start time.Time, window time.Duration, slices, perSliceCap int) *recorder {
	r := &recorder{start: start, slice: window / time.Duration(slices), slices: make([][]float64, slices)}
	for i := range r.slices {
		r.slices[i] = make([]float64, 0, perSliceCap)
	}
	return r
}

// add files a sample under the slice its completion time falls in; samples
// from warm-up and drain fall outside and are dropped.
func (r *recorder) add(at time.Time, d time.Duration) {
	off := at.Sub(r.start)
	if off < 0 {
		return
	}
	if i := int(off / r.slice); i < len(r.slices) {
		r.slices[i] = append(r.slices[i], float64(d)/1e3)
	}
}

func (r *recorder) count() int {
	n := 0
	for _, s := range r.slices {
		n += len(s)
	}
	return n
}

// pct is the median over slices of each slice's nearest-rank percentile.
// Empty slices are skipped; with no samples at all it returns NaN.
func (r *recorder) pct(p float64) float64 {
	var per []float64
	for _, s := range r.slices {
		if len(s) == 0 {
			continue
		}
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		per = append(per, nearestRank(sorted, p))
	}
	if len(per) == 0 {
		return math.NaN()
	}
	return median(per)
}

func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// dueRing holds the due time of recent frames for the subscribers' lag
// computation. 2^16 frames is seconds of backlog at the fastest frame rate;
// a subscriber further behind than that has long since failed the run.
const dueRing = 1 << 16

// pusher drives connection A: PushBatch on a schedule (or back to back),
// handing one frame in ackEvery to the acker.
type pusher struct {
	c     *client.Client
	in    *input
	spec  pushSpec
	spans *spanLog

	due     [dueRing]atomic.Int64 // unix nanos frame f was due (or sent, closed loop)
	frames  atomic.Uint64         // frames pushed
	pushNs  atomic.Int64          // time spent inside client.PushBatch
	late    *recorder             // send start minus due time
	ackq    chan ackReq
	ackLost atomic.Int64 // acks never issued: the acker was a whole queue behind
	err     error
}

type ackReq struct {
	frame uint64
	due   time.Time
}

func (p *pusher) idsSent() uint64 { return p.frames.Load() * uint64(p.spec.frame) }

// run pushes until stop is set. Open loop: frame f is due at t0 + f*interval
// and is timed from then, however late the generator runs; lateness is
// recorded so a run the generator could not keep up with is refused.
func (p *pusher) run(t0 time.Time, stop *atomic.Bool) {
	defer close(p.ackq)
	var interval time.Duration
	if p.spec.rate > 0 {
		interval = time.Duration(float64(time.Second) * float64(p.spec.frame) / float64(p.spec.rate))
	}
	n := uint64(len(p.in.frames))
	wk, err := newWaker()
	if err != nil {
		p.err = err
		return
	}
	defer wk.close()
	for f := uint64(0); !stop.Load(); f++ {
		due := t0
		if interval > 0 {
			due = t0.Add(time.Duration(f) * interval)
		}
		if err := wk.sleepUntil(due); err != nil {
			p.err = err
			return
		}
		now := time.Now()
		if interval > 0 {
			p.late.add(now, now.Sub(due))
		} else {
			due = now
		}
		p.due[f%dueRing].Store(due.UnixNano())
		if err := p.c.PushBatch(p.in.frames[f%n]); err != nil {
			p.err = err
			return
		}
		end := time.Now()
		p.pushNs.Add(int64(end.Sub(now)))
		p.spans.add(spanPush, f, now, end)
		p.frames.Add(1)
		if p.spec.ackEvery > 0 && f%uint64(p.spec.ackEvery) == 0 {
			select {
			case p.ackq <- ackReq{f, due}:
			default:
				p.ackLost.Add(1)
			}
		}
	}
}

// rpcStats counts request/response exchanges for fail_share.
type rpcStats struct {
	attempted, failed int64
}

// acker awaits Pongs off the push loop, so an ack wait never stalls the
// schedule. The daemon handles a connection's frames in order, so the Pong
// proves every frame written before the Ping was ingested.
func acker(c *client.Client, q <-chan ackReq, lat *recorder, st *rpcStats, spans *spanLog) {
	for req := range q {
		st.attempted++
		start := time.Now()
		if err := c.Ping(); err != nil {
			st.failed++
			continue
		}
		end := time.Now()
		lat.add(end, end.Sub(req.due))
		spans.add(spanAck, req.frame, start, end)
	}
}

// subscriber drains one sigma-prime subscription, counting what arrives and
// timing, for every pushed frame, when the cumulative count received reaches
// the cumulative count that frame completes (the watermark lag).
type subscriber struct {
	ch    <-chan nodesampling.NodeID
	in    *input
	every uint64
	push  *pusher
	spans *spanLog
	// cum is the number of sigma-prime draws this subscription has been
	// offered once the given number of frames is processed: frames*frame
	// ids standalone, the ids its member owns in a fleet.
	cum func(frames uint64) uint64

	// lost is how many of its draws are known never to arrive (dropped at
	// a shard ring, the emit buffer, the hub or the client buffer), refreshed
	// from the daemon's counters once a second. Without it one lost batch
	// would hold the received count below every later frame's watermark and
	// read as lag for the rest of the run.
	lost atomic.Uint64

	lag       *recorder
	received  atomic.Uint64
	strangers uint64   // ids outside the pushed population
	hist      []uint64 // received ids per population index
}

func (s *subscriber) run() {
	var got, frame uint64
	next := s.cum(1)
	for id := range s.ch {
		got++
		if i := s.in.index(id); i >= 0 {
			s.hist[i]++
		} else {
			s.strangers++
		}
		if got&63 == 0 || len(s.ch) == 0 {
			s.received.Store(got)
		}
		for (got+s.lost.Load())*s.every >= next {
			now := time.Now()
			due := time.Unix(0, s.push.due[frame%dueRing].Load())
			s.lag.add(now, now.Sub(due))
			s.spans.add(spanSigma, frame, due, now)
			frame++
			next = s.cum(frame + 1)
		}
	}
	s.received.Store(got)
}

// sampler drives Sample(16) on connection B, back to back (closed loop) or
// on a schedule (open loop, timed from the due time).
type sampler struct {
	c     *client.Client
	in    *input
	rate  int
	spans *spanLog

	rtt  *recorder
	late *recorder
	st   rpcStats
	done atomic.Uint64 // completed calls
	err  error
}

func (s *sampler) run(t0 time.Time, stop *atomic.Bool) {
	var interval time.Duration
	if s.rate > 0 {
		interval = time.Second / time.Duration(s.rate)
	}
	wk, err := newWaker()
	if err != nil {
		s.err = err
		return
	}
	defer wk.close()
	for k := uint64(0); !stop.Load(); k++ {
		due := t0
		if interval > 0 {
			due = t0.Add(time.Duration(k) * interval)
		}
		if err := wk.sleepUntil(due); err != nil {
			s.err = err
			return
		}
		start := time.Now()
		if interval > 0 {
			s.late.add(start, start.Sub(due))
		} else {
			due = start
		}
		ids, err := s.c.Sample(sampleN)
		end := time.Now()
		s.st.attempted++
		if err != nil {
			s.st.failed++
			s.err = err
			return
		}
		if !s.valid(ids) {
			s.st.failed++
			continue
		}
		s.rtt.add(end, end.Sub(due))
		s.spans.add(spanSample, k, start, end)
		s.done.Add(1)
	}
}

// valid is correctness check (d): exactly 16 ids, all from the pushed
// population.
func (s *sampler) valid(ids []nodesampling.NodeID) bool {
	if len(ids) != sampleN {
		return false
	}
	for _, id := range ids {
		if s.in.index(id) < 0 {
			return false
		}
	}
	return true
}
