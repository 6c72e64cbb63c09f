package telemetry

import (
	"errors"
	"sync"

	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
)

// Probe is a bounded sliding window over a stream of ids: a ring buffer of
// the most recent window ids, with optional decimation. It is the memory
// behind the live uniformity gauge: old draws age out, so the exported
// divergence tracks what the stream looks like now, not since boot — an
// attack that stops shows up as recovery, exactly what an alert needs.
//
// Offer is safe for concurrent use and runs on the ingest path (the daemon
// offers every ingested batch), so it only counts and stores — one mutex
// acquisition per batch, one ring store per kept id; the histogram over the
// window is built by Snapshot, once per scrape.
type Probe struct {
	mu    sync.Mutex
	ring  []uint64
	every uint64 // keep 1 of every `every` offered ids (>=1)
	seen  uint64 // offered ids since boot, pre-decimation
	kept  uint64 // ids admitted to the window since boot
}

// NewProbe returns a probe holding the last `window` admitted ids, keeping
// one of every `every` offered ids (every < 1 is treated as 1, i.e. no
// decimation). A zero window disables the probe: Offer only counts and the
// histogram stays empty.
func NewProbe(window, every int) *Probe {
	if every < 1 {
		every = 1
	}
	p := &Probe{every: uint64(every)}
	if window > 0 {
		p.ring = make([]uint64, window)
	}
	return p
}

// Offer feeds a batch of ids into the window, applying decimation across
// batch boundaries. One lock acquisition per call.
func (p *Probe) Offer(ids []uint64) {
	if len(ids) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ring == nil {
		p.seen += uint64(len(ids))
		return
	}
	// The 1-in-every gate hashes the offer counter instead of striding it:
	// a plain `seen % every` would alias with periodic input (an id cycle
	// sharing a factor with `every` collapses the window onto a subset of
	// ids and fakes divergence). Mixing keeps the gate deterministic and
	// O(1) but aperiodic. A power-of-two interval (the daemon's 8, and 1,
	// which keeps everything) is a mask, not a division.
	every, mask := p.every, p.every-1
	pow2 := every&mask == 0
	ring, seen, kept := p.ring, p.seen, p.kept
	head := int(kept % uint64(len(ring))) // the slot the next kept id overwrites
	for _, id := range ids {
		seen++
		if h := rng.Mix64(seen); pow2 && h&mask != 0 || !pow2 && h%every != 0 {
			continue
		}
		ring[head] = id
		if head++; head == len(ring) {
			head = 0
		}
		kept++
	}
	p.seen, p.kept = seen, kept
}

// Snapshot returns the window contents as a metrics.Histogram plus the
// cumulative offered/kept counters.
func (p *Probe) Snapshot() (h *metrics.Histogram, seen, kept uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h = metrics.NewHistogram()
	// Until the ring has wrapped, only its first `kept` slots hold ids.
	for _, id := range p.ring[:min(p.kept, uint64(len(p.ring)))] {
		h.Add(id)
	}
	return h, p.seen, p.kept
}

// Window returns the configured window size (0 when disabled).
func (p *Probe) Window() int {
	if p == nil {
		return 0
	}
	return len(p.ring)
}

// Uniformity is the live uniformity gauge: two probes, one over the input
// stream σ the daemon ingests and one over the output stream σ′ it emits,
// compared against the uniform distribution at scrape time. It exports the
// paper's evaluation — KL divergence to uniform per stream and the G_KL
// gain of Relation 6 (how much of the input's bias the sampler removed) —
// as gauges, so a targeted flood is visible as rising input divergence and
// a failing sampler as rising output divergence.
type Uniformity struct {
	In  *Probe
	Out *Probe
}

// NewUniformity returns a gauge whose two probes share a window size.
// Input decimation `inEvery` bounds the cost of high-rate ingest; the
// output probe is fed at scrape time so it never decimates.
func NewUniformity(window, inEvery int) *Uniformity {
	return &Uniformity{
		In:  NewProbe(window, inEvery),
		Out: NewProbe(window, 1),
	}
}

// Collect implements Collector. The support size n for the uniform
// reference is the number of distinct ids observed across both windows —
// the live estimate of the population the sampler is drawing from. The
// gain sample is omitted while the input window is itself uniform
// (metrics.ErrZeroDivergence: nothing to correct, gain undefined) and
// divergences are omitted while a window is empty.
func (u *Uniformity) Collect() []Family {
	hin, inSeen, inKept := u.In.Snapshot()
	hout, outSeen, outKept := u.Out.Snapshot()

	n := hin.Distinct()
	if d := hout.Distinct(); d > n {
		n = d
	}

	window := Family{
		Name: "unsd_uniformity_window_ids",
		Help: "Ids currently held in the uniformity gauge's sliding window, per stream.",
		Type: Gauge,
		Samples: []Sample{
			{Labels: []Label{{Name: "stream", Value: "input"}}, Value: float64(hin.Total())},
			{Labels: []Label{{Name: "stream", Value: "output"}}, Value: float64(hout.Total())},
		},
	}
	distinct := Family{
		Name: "unsd_uniformity_distinct_ids",
		Help: "Distinct ids in the uniformity gauge's sliding window, per stream.",
		Type: Gauge,
		Samples: []Sample{
			{Labels: []Label{{Name: "stream", Value: "input"}}, Value: float64(hin.Distinct())},
			{Labels: []Label{{Name: "stream", Value: "output"}}, Value: float64(hout.Distinct())},
		},
	}
	offered := Family{
		Name: "unsd_uniformity_offered_ids_total",
		Help: "Ids offered to the uniformity gauge since boot, per stream (pre-decimation).",
		Type: Counter,
		Samples: []Sample{
			{Labels: []Label{{Name: "stream", Value: "input"}}, Value: float64(inSeen)},
			{Labels: []Label{{Name: "stream", Value: "output"}}, Value: float64(outSeen)},
		},
	}
	kept := Family{
		Name: "unsd_uniformity_kept_ids_total",
		Help: "Ids admitted to the uniformity gauge's window since boot, per stream.",
		Type: Counter,
		Samples: []Sample{
			{Labels: []Label{{Name: "stream", Value: "input"}}, Value: float64(inKept)},
			{Labels: []Label{{Name: "stream", Value: "output"}}, Value: float64(outKept)},
		},
	}
	fams := []Family{window, distinct, offered, kept}

	inKL := Family{
		Name: "unsd_uniformity_input_kl",
		Help: "KL divergence of the input window from uniform; rises under a targeted flood.",
		Type: Gauge,
	}
	outKL := Family{
		Name: "unsd_uniformity_output_kl",
		Help: "KL divergence of the sigma-prime output window from uniform; the live SLO.",
		Type: Gauge,
	}
	gain := Family{
		Name: "unsd_uniformity_gain",
		Help: "G_KL sampler gain (paper Relation 6): fraction of input bias removed; absent while the input is uniform.",
		Type: Gauge,
	}
	if n > 0 {
		if v, err := hin.KLvsUniform(n); err == nil {
			inKL.Samples = []Sample{{Value: v}}
		}
		if v, err := hout.KLvsUniform(n); err == nil {
			outKL.Samples = []Sample{{Value: v}}
		}
		if hin.Total() > 0 && hout.Total() > 0 {
			if g, err := metrics.Gain(hin, hout, n); err == nil {
				gain.Samples = []Sample{{Value: g}}
			} else if !errors.Is(err, metrics.ErrZeroDivergence) {
				// Any other Gain error is a zero-total histogram, excluded above.
				gain.Samples = nil
			}
		}
	}
	return append(fams, inKL, outKL, gain)
}
