// Package telemetry is the operational observability plane of the node
// sampling service: a dependency-free Prometheus registry and text-format
// (version 0.0.4) exposition writer with a Parse half for tooling that reads
// it back, latency histograms, and a live uniformity gauge that turns the
// paper's evaluation metric (KL divergence to uniform and the G_KL gain,
// internal/metrics) into a scrapeable SLO signal. It knows nothing of the
// serving plane: the collectors that adapt the shard pool's and the
// autoscaler's counters live with their one caller, cmd/unsd, so a client
// that parses an exposition links no sampler.
//
// The package is deliberately pull-only: nothing here sits on the ingest
// hot path. Collectors read atomics and take short-lived locks at scrape
// time — a daemon nobody scrapes pays nothing. Metric families follow the
// Prometheus conventions (lowercase snake_case names, counters suffixed
// _total) and every family exported by the daemon carries the unsd_ prefix.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ContentType is the HTTP Content-Type of the exposition format this
// package writes (Prometheus text format, version 0.0.4).
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Type is a metric family's type as exposed on the # TYPE line.
type Type string

// The three family types the plane uses. Counters are cumulative and must
// never decrease (the exposition test pins this across live resizes);
// gauges move freely; histograms expose a fixed-bucket latency
// distribution as cumulative le-labelled series plus _sum and _count.
const (
	Counter   Type = "counter"
	Gauge     Type = "gauge"
	Histogram Type = "histogram"
)

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// Sample is one exported value of a family, distinguished by its labels.
type Sample struct {
	Labels []Label
	Value  float64
}

// Bucket is one cumulative histogram bucket: the count of observations
// less than or equal to UpperBound.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// HistogramSample is one exported histogram of a histogram-typed family:
// cumulative buckets over strictly increasing finite upper bounds (the
// +Inf bucket is implied by Count), the total observation count and the
// sum of observed values. Labels must not include "le" — the writer owns
// that label.
type HistogramSample struct {
	Labels  []Label
	Buckets []Bucket
	Count   uint64
	Sum     float64
}

// Family is one metric family: a # HELP line, a # TYPE line and zero or
// more samples. A family with no samples still exposes its metadata, so a
// dashboard can discover a quantity before it first fires. Counter and
// gauge families carry Samples; histogram families carry Histograms.
type Family struct {
	Name       string
	Help       string
	Type       Type
	Samples    []Sample
	Histograms []HistogramSample
}

// Collector produces a set of families at scrape time.
type Collector interface {
	Collect() []Family
}

// CollectorFunc adapts a plain function to the Collector interface.
type CollectorFunc func() []Family

// Collect implements Collector.
func (f CollectorFunc) Collect() []Family { return f() }

// Registry is a set of collectors gathered and written on each scrape. All
// methods are safe for concurrent use; collectors must be too (ours only
// read atomics and short-lived-lock snapshots).
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds collectors to the registry.
func (r *Registry) Register(cs ...Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, cs...)
	r.mu.Unlock()
}

// Gather collects every registered collector's families, validates them
// (legal names, no duplicate families) and returns them sorted by name so
// consecutive scrapes are diffable.
func (r *Registry) Gather() ([]Family, error) {
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()
	var fams []Family
	seen := make(map[string]bool)
	for _, c := range collectors {
		for _, f := range c.Collect() {
			if err := validateFamily(f); err != nil {
				return nil, err
			}
			if seen[f.Name] {
				return nil, fmt.Errorf("telemetry: duplicate family %q", f.Name)
			}
			seen[f.Name] = true
			fams = append(fams, f)
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams, nil
}

// WriteTo gathers and writes the exposition in Prometheus text format
// version 0.0.4: for each family a # HELP line, a # TYPE line, then one
// line per sample.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	fams, err := r.Gather()
	if err != nil {
		return 0, err
	}
	var sb strings.Builder
	for _, f := range fams {
		sb.WriteString("# HELP ")
		sb.WriteString(f.Name)
		sb.WriteByte(' ')
		sb.WriteString(escapeHelp(f.Help))
		sb.WriteByte('\n')
		sb.WriteString("# TYPE ")
		sb.WriteString(f.Name)
		sb.WriteByte(' ')
		sb.WriteString(string(f.Type))
		sb.WriteByte('\n')
		for _, s := range f.Samples {
			writeSampleLine(&sb, f.Name, s.Labels, "", s.Value)
		}
		for _, h := range f.Histograms {
			for _, b := range h.Buckets {
				writeSampleLine(&sb, f.Name+"_bucket", h.Labels, formatValue(b.UpperBound), float64(b.Count))
			}
			writeSampleLine(&sb, f.Name+"_bucket", h.Labels, "+Inf", float64(h.Count))
			writeSampleLine(&sb, f.Name+"_sum", h.Labels, "", h.Sum)
			writeSampleLine(&sb, f.Name+"_count", h.Labels, "", float64(h.Count))
		}
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// writeSampleLine renders one sample line: name, the label set (with the
// reserved le label appended when non-empty — histogram bucket lines) and
// the value.
func writeSampleLine(sb *strings.Builder, name string, labels []Label, le string, v float64) {
	sb.WriteString(name)
	if len(labels) > 0 || le != "" {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabelValue(l.Value))
			sb.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(`le="`)
			sb.WriteString(le)
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatValue(v))
	sb.WriteByte('\n')
}

// Handler returns an http.Handler serving the registry's exposition — the
// body of a /metrics endpoint. A gather failure (always a programming
// error: an invalid or duplicated family) answers 500 with the reason.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		if _, err := r.WriteTo(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// validateFamily enforces the plane's naming convention, stricter than
// Prometheus requires: family names are lowercase snake_case (or colons for
// recording-rule style names) with no digits, label names are lowercase
// snake_case. Keeping the alphabet small keeps variability in labels, where
// it belongs, and lets the exposition test pin one regular expression.
func validateFamily(f Family) error {
	if !validMetricName(f.Name) {
		return fmt.Errorf("telemetry: invalid family name %q (want [a-z_:]+)", f.Name)
	}
	if f.Type != Counter && f.Type != Gauge && f.Type != Histogram {
		return fmt.Errorf("telemetry: family %s has invalid type %q", f.Name, f.Type)
	}
	if f.Help == "" {
		return fmt.Errorf("telemetry: family %s has no help text", f.Name)
	}
	if f.Type == Histogram && len(f.Samples) > 0 {
		return fmt.Errorf("telemetry: histogram family %s carries plain samples", f.Name)
	}
	if f.Type != Histogram && len(f.Histograms) > 0 {
		return fmt.Errorf("telemetry: %s family %s carries histogram samples", f.Type, f.Name)
	}
	for _, s := range f.Samples {
		for _, l := range s.Labels {
			if !validLabelName(l.Name) {
				return fmt.Errorf("telemetry: family %s has invalid label name %q", f.Name, l.Name)
			}
		}
		if f.Type == Counter && s.Value < 0 {
			return fmt.Errorf("telemetry: counter %s has negative value %v", f.Name, s.Value)
		}
	}
	for _, h := range f.Histograms {
		for _, l := range h.Labels {
			if !validLabelName(l.Name) {
				return fmt.Errorf("telemetry: family %s has invalid label name %q", f.Name, l.Name)
			}
			if l.Name == "le" {
				return fmt.Errorf("telemetry: histogram %s labels its own le", f.Name)
			}
		}
		prev := math.Inf(-1)
		var prevCount uint64
		for _, b := range h.Buckets {
			if math.IsNaN(b.UpperBound) || math.IsInf(b.UpperBound, 0) {
				return fmt.Errorf("telemetry: histogram %s has non-finite bucket bound %v", f.Name, b.UpperBound)
			}
			if b.UpperBound <= prev {
				return fmt.Errorf("telemetry: histogram %s bucket bounds not strictly increasing at %v", f.Name, b.UpperBound)
			}
			if b.Count < prevCount {
				return fmt.Errorf("telemetry: histogram %s cumulative bucket counts decrease at le=%v", f.Name, b.UpperBound)
			}
			prev, prevCount = b.UpperBound, b.Count
		}
		if h.Count < prevCount {
			return fmt.Errorf("telemetry: histogram %s count %d below last bucket %d", f.Name, h.Count, prevCount)
		}
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if (c < 'a' || c > 'z') && c != '_' && c != ':' {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if (c < 'a' || c > 'z') && c != '_' {
			return false
		}
	}
	return true
}

// escapeHelp escapes a HELP line per the text format: backslash and
// newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value per the text format: backslash,
// double quote and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trippable decimal, with the spec's spellings for the specials.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// gaugeSample and counter helpers keep collector bodies terse.

// G returns an unlabelled gauge family with one sample.
func G(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: Gauge, Samples: []Sample{{Value: v}}}
}

// C returns an unlabelled counter family with one sample.
func C(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: Counter, Samples: []Sample{{Value: v}}}
}

// B returns 1.0 for true and 0.0 for false — the conventional encoding of a
// boolean gauge.
func B(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
