package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DurationBuckets is the plane's standard latency ladder: a 1-2.5-5
// decade sweep from one microsecond to ten seconds. It covers everything
// the daemon times, from a per-wire-batch ingest (microseconds) to a
// sealed snapshot fsync or a resize hand-off under load (milliseconds to
// seconds), with the +Inf overflow catching pathology.
var DurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// HistogramMetric is a fixed-bucket histogram instrument. Observe is
// wait-free apart from the float-sum CAS loop: one atomic add on the
// owning bucket, so it is safe on any path the daemon times, including
// per-wire-batch ingest. It implements Collector, exporting itself as a
// single histogram-typed family.
type HistogramMetric struct {
	name, help string
	bounds     []float64       // finite upper bounds, strictly increasing
	buckets    []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sumBits    atomic.Uint64   // float64 bits of the running sum
}

// NewHistogramMetric builds a histogram over the given finite upper
// bounds (a private sorted copy is kept; the +Inf bucket is implicit).
// It panics on an empty or duplicated bound list — instrument
// construction is programmer territory.
func NewHistogramMetric(name, help string, bounds []float64) *HistogramMetric {
	if len(bounds) == 0 {
		panic("telemetry: histogram " + name + " needs at least one bucket bound")
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("telemetry: histogram " + name + " has a non-finite bound")
		}
		if i > 0 && bs[i-1] == b {
			panic("telemetry: histogram " + name + " has duplicate bounds")
		}
	}
	return &HistogramMetric{
		name:    name,
		help:    help,
		bounds:  bs,
		buckets: make([]atomic.Uint64, len(bs)+1),
	}
}

// Observe records one value.
func (h *HistogramMetric) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *HistogramMetric) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations so far.
func (h *HistogramMetric) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Name returns the family name the instrument exports under.
func (h *HistogramMetric) Name() string { return h.name }

// snapshot reads the per-bucket counts once and derives the cumulative
// view from that single pass, so the exported +Inf bucket always equals
// _count even while Observe races the scrape.
func (h *HistogramMetric) snapshot() HistogramSample {
	s := HistogramSample{Buckets: make([]Bucket, len(h.bounds))}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		s.Buckets[i] = Bucket{UpperBound: b, Count: cum}
	}
	s.Count = cum + h.buckets[len(h.bounds)].Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// Collect implements Collector.
func (h *HistogramMetric) Collect() []Family {
	return []Family{{
		Name:       h.name,
		Help:       h.help,
		Type:       Histogram,
		Histograms: []HistogramSample{h.snapshot()},
	}}
}

// The daemon's latency plane: the five histogram families ISSUE 7 names,
// defined here (not in cmd/unsd) so tooling like cmd/unsbench can record
// which families a build exports without importing a main package.

// latencyFamilies pins name and help text for every daemon latency
// histogram in one place.
var latencyFamilies = []struct{ name, help string }{
	{"unsd_snapshot_write_duration_seconds", "Wall time of one durable snapshot write (marshal, seal, fsync, rename)."},
	{"unsd_resize_duration_seconds", "Wall time of one live shard-plane resize hand-off (quiesce, re-partition, sketch merge)."},
	{"unsd_sample_duration_seconds", "Server-side latency of one Sample/SampleN evaluation, any surface (HTTP, framed stream)."},
	{"unsd_ingest_batch_duration_seconds", "Server-side latency of ingesting one wire batch into the shard plane, any surface."},
	{"unsd_emit_delivery_lag_seconds", "Lag between the last shard part of a pushed batch handing off its sigma-prime draws and their fan-out to subscriber rings."},
}

// Latency bundles the daemon's latency histograms. One instance is wired
// through the daemon (snapshot loop, resize gate, sample handlers, wire
// ingest, shard emit loop) and registered as a single Collector.
type Latency struct {
	SnapshotWrite *HistogramMetric
	Resize        *HistogramMetric
	Sample        *HistogramMetric
	IngestBatch   *HistogramMetric
	EmitLag       *HistogramMetric
}

// NewLatency returns the bundle with every instrument on the standard
// duration ladder.
func NewLatency() *Latency {
	l := &Latency{}
	for i, h := range []**HistogramMetric{
		&l.SnapshotWrite, &l.Resize, &l.Sample, &l.IngestBatch, &l.EmitLag,
	} {
		*h = NewHistogramMetric(latencyFamilies[i].name, latencyFamilies[i].help, DurationBuckets)
	}
	return l
}

// Collect implements Collector: the five families, in declaration order.
func (l *Latency) Collect() []Family {
	var fams []Family
	for _, h := range []*HistogramMetric{l.SnapshotWrite, l.Resize, l.Sample, l.IngestBatch, l.EmitLag} {
		fams = append(fams, h.Collect()...)
	}
	return fams
}

// LatencyFamilyNames lists the histogram families a daemon build exports,
// for perf-artifact provenance.
func LatencyFamilyNames() []string {
	names := make([]string, len(latencyFamilies))
	for i, f := range latencyFamilies {
		names[i] = f.name
	}
	return names
}
