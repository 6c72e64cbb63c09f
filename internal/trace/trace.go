// Package trace provides the real-data substrate of the paper's evaluation
// (Table II, Figures 5 and 12). The original experiments replay three HTTP
// request logs from the Internet Traffic Archive (NASA Kennedy Space Center,
// ClarkNet, University of Saskatchewan), which are not redistributable here;
// the package therefore offers two interchangeable paths:
//
//   - Synthesize builds a synthetic trace whose stream length m, population
//     size n and maximum frequency match Table II exactly, with a Zipf-shaped
//     rank/frequency profile — the paper's own Figure 5 shows all three
//     traces are Zipfian, and the sampling service observes nothing about a
//     stream beyond its frequency profile, so this substitution preserves
//     the evaluated behaviour.
//   - ParseCommonLog ingests a real log in Common Log Format so the original
//     traces can be dropped in when available (unsbench -trace).
package trace

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strings"

	"nodesampling/internal/rng"
)

// Spec declares the published statistics of one trace (Table II).
type Spec struct {
	Name    string
	M       int    // stream length ("# ids")
	N       int    // population size ("# distinct ids")
	MaxFreq uint64 // occurrences of the most frequent id ("max. freq.")
}

// TableII returns the three trace specifications exactly as printed in the
// paper.
func TableII() []Spec {
	return []Spec{
		{Name: "NASA", M: 1_891_715, N: 81_983, MaxFreq: 17_572},
		{Name: "ClarkNet", M: 1_673_794, N: 94_787, MaxFreq: 7_239},
		{Name: "Saskatchewan", M: 2_408_625, N: 162_523, MaxFreq: 52_695},
	}
}

// Trace is a replayable stream of node identifiers with known statistics.
type Trace struct {
	ids  []uint64
	freq map[uint64]uint64
	max  uint64
}

// IDs returns the underlying stream. The slice is shared for efficiency
// (traces are large); callers must not modify it.
func (t *Trace) IDs() []uint64 { return t.ids }

// Len returns the stream length m.
func (t *Trace) Len() int { return len(t.ids) }

// Distinct returns the population size n.
func (t *Trace) Distinct() int { return len(t.freq) }

// MaxFreq returns the occurrence count of the most frequent id.
func (t *Trace) MaxFreq() uint64 { return t.max }

// Counts returns a copy of the id → occurrences table.
func (t *Trace) Counts() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(t.freq))
	for k, v := range t.freq {
		out[k] = v
	}
	return out
}

// RankFrequency returns the occurrence counts sorted in decreasing order —
// the log-log rank/frequency curve of Figure 5.
func (t *Trace) RankFrequency() []uint64 {
	out := make([]uint64, 0, len(t.freq))
	for _, v := range t.freq {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// newTrace finalises a trace from a raw id stream.
func newTrace(ids []uint64) *Trace {
	freq := make(map[uint64]uint64)
	var max uint64
	for _, id := range ids {
		freq[id]++
		if freq[id] > max {
			max = freq[id]
		}
	}
	return &Trace{ids: ids, freq: freq, max: max}
}

// CalibrateZipfAlpha finds the Zipf exponent α such that the top-ranked id
// of a Zipf(α) distribution over n ids carries the fraction
// maxFreq/m of the stream: 1/H_{n,α} = maxFreq/m, solved by bisection
// (the left side is strictly increasing in α).
func CalibrateZipfAlpha(spec Spec) (float64, error) {
	if spec.M < 1 || spec.N < 1 {
		return 0, fmt.Errorf("trace: spec %q has non-positive sizes", spec.Name)
	}
	if spec.MaxFreq < 1 || spec.MaxFreq > uint64(spec.M) {
		return 0, fmt.Errorf("trace: spec %q max frequency %d outside [1, %d]", spec.Name, spec.MaxFreq, spec.M)
	}
	if spec.N == 1 {
		if spec.MaxFreq != uint64(spec.M) {
			return 0, fmt.Errorf("trace: spec %q with one id needs max frequency %d, got %d",
				spec.Name, spec.M, spec.MaxFreq)
		}
		return 1, nil
	}
	target := float64(spec.MaxFreq) / float64(spec.M)
	if target <= 1/float64(spec.N) {
		return 0, fmt.Errorf("trace: spec %q flatter than uniform; no Zipf fit", spec.Name)
	}
	topShare := func(alpha float64) float64 {
		h := 0.0
		for i := 1; i <= spec.N; i++ {
			h += math.Pow(float64(i), -alpha)
		}
		return 1 / h
	}
	lo, hi := 0.0, 8.0
	if topShare(hi) < target {
		return 0, fmt.Errorf("trace: spec %q too peaked for a Zipf fit", spec.Name)
	}
	for iter := 0; iter < 200 && hi-lo > 1e-12; iter++ {
		mid := (lo + hi) / 2
		if topShare(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Synthesize builds a synthetic trace matching the spec: exactly spec.M
// elements over exactly spec.N distinct ids (0..N−1, id = rank), with the
// top id occurring exactly spec.MaxFreq times and the remaining frequencies
// following the calibrated Zipf profile. The element order is a uniform
// shuffle under the given seed (the sampling strategies are order-oblivious
// in distribution, but a fixed adversarial order is reproducible from the
// seed).
func Synthesize(spec Spec, seed uint64) (*Trace, error) {
	alpha, err := CalibrateZipfAlpha(spec)
	if err != nil {
		return nil, err
	}
	freqs, err := frequencyVector(spec, alpha)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, 0, spec.M)
	for rank, f := range freqs {
		for i := uint64(0); i < f; i++ {
			ids = append(ids, uint64(rank))
		}
	}
	r := rng.New(seed)
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return newTrace(ids), nil
}

// frequencyVector builds the per-rank occurrence counts: Zipf-shaped,
// summing exactly to M, minimum 1 (so all N ids appear), maximum exactly
// MaxFreq at rank 0.
func frequencyVector(spec Spec, alpha float64) ([]uint64, error) {
	n := spec.N
	if uint64(spec.M) < uint64(n)+spec.MaxFreq-1 {
		return nil, fmt.Errorf("trace: spec %q cannot hold %d distinct ids and a peak of %d in %d elements",
			spec.Name, n, spec.MaxFreq, spec.M)
	}
	if n == 1 {
		if spec.MaxFreq != uint64(spec.M) {
			return nil, fmt.Errorf("trace: spec %q with one id needs max frequency %d, got %d",
				spec.Name, spec.M, spec.MaxFreq)
		}
		return []uint64{uint64(spec.M)}, nil
	}
	freqs := make([]uint64, n)
	freqs[0] = spec.MaxFreq
	total := spec.MaxFreq
	top := float64(spec.MaxFreq)
	for i := 1; i < n; i++ {
		f := uint64(math.Round(top * math.Pow(float64(i+1), -alpha)))
		if f < 1 {
			f = 1
		}
		if f > spec.MaxFreq {
			f = spec.MaxFreq
		}
		freqs[i] = f
		total += f
	}
	// Spread the rounding residue over mid ranks without disturbing the
	// peak (rank 0) or dropping any id below 1.
	switch {
	case total < uint64(spec.M):
		deficit := uint64(spec.M) - total
		progressed := false
		for i := 1; deficit > 0; i = i%(n-1) + 1 {
			if freqs[i] < spec.MaxFreq-1 { // keep rank 0 the unique maximum
				freqs[i]++
				deficit--
				progressed = true
			}
			if i == n-1 {
				if !progressed {
					return nil, fmt.Errorf("trace: spec %q cannot absorb rounding deficit", spec.Name)
				}
				progressed = false
			}
		}
	case total > uint64(spec.M):
		surplus := total - uint64(spec.M)
		progressed := false
		for i := 1; surplus > 0; i = i%(n-1) + 1 {
			if freqs[i] > 1 {
				freqs[i]--
				surplus--
				progressed = true
			}
			if i == n-1 {
				if !progressed {
					return nil, fmt.Errorf("trace: spec %q cannot absorb rounding surplus", spec.Name)
				}
				progressed = false
			}
		}
	}
	return freqs, nil
}

// KeyField selects which Common Log Format field identifies the "node".
type KeyField int

// The two natural identity choices for an HTTP log.
const (
	// KeyRemoteHost uses the first field (requesting host), matching the
	// paper's node-identifier semantics.
	KeyRemoteHost KeyField = iota + 1
	// KeyRequestURL uses the request target instead.
	KeyRequestURL
)

// ParseCommonLog reads a Common Log Format stream ("host ident user [time]
// \"request\" status size") and returns the node-id stream obtained by
// hashing the selected field with FNV-1a (64-bit). Blank and malformed
// lines are skipped; the count of skipped lines is returned for visibility.
func ParseCommonLog(r io.Reader, key KeyField) (ids []uint64, skipped int, err error) {
	if key != KeyRemoteHost && key != KeyRequestURL {
		return nil, 0, fmt.Errorf("trace: unknown key field %d", key)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			skipped++
			continue
		}
		var token string
		switch key {
		case KeyRemoteHost:
			sp := strings.IndexByte(line, ' ')
			if sp <= 0 {
				skipped++
				continue
			}
			token = line[:sp]
		case KeyRequestURL:
			// The request is the first quoted field: "GET /path HTTP/1.0".
			open := strings.IndexByte(line, '"')
			if open < 0 {
				skipped++
				continue
			}
			close := strings.IndexByte(line[open+1:], '"')
			if close < 0 {
				skipped++
				continue
			}
			req := line[open+1 : open+1+close]
			parts := strings.Fields(req)
			if len(parts) < 2 {
				skipped++
				continue
			}
			token = parts[1]
		}
		h := fnv.New64a()
		if _, err := io.WriteString(h, token); err != nil {
			return nil, skipped, fmt.Errorf("trace: hash field: %w", err)
		}
		ids = append(ids, h.Sum64())
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, fmt.Errorf("trace: scan log: %w", err)
	}
	if len(ids) == 0 {
		return nil, skipped, fmt.Errorf("trace: no parsable lines in log")
	}
	return ids, skipped, nil
}

// FromIDs wraps a raw id stream (for example the output of ParseCommonLog)
// as a Trace. The slice is retained; do not modify it afterwards.
func FromIDs(ids []uint64) (*Trace, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("trace: empty id stream")
	}
	return newTrace(ids), nil
}
