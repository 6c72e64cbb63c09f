// Package adversary models the strong adversary of Section III-B: an entity
// that fully controls ℓ malicious node identifiers and biases the input
// stream of correct nodes by injecting them at arbitrary rates.
//
// The package provides two things:
//
//   - Stream builders that superimpose the paper's representative attacks
//     (peak, targeted, flooding) onto a legitimate workload, returning the
//     exact composite distribution so both strategies can be evaluated on it.
//   - A Planner wrapping the Section V analysis: how many distinct ids the
//     adversary must create (L_{k,s} for a targeted attack, E_k for a
//     flooding attack) for a desired success probability.
//
// The package's tests close the loop between the urn analysis and the
// implementation: they measure the actual success probability of an attack
// against freshly drawn 2-universal hash families.
package adversary

import (
	"fmt"

	"nodesampling/internal/stream"
	"nodesampling/internal/urn"
)

// Plan reports the minimum adversarial effort against a k-column, s-row
// Count-Min sketch (Table I of the paper).
type Plan struct {
	K, S         int
	Eta          float64
	TargetedIDs  int // L_{k,s}: distinct ids to bias one victim
	FloodingIDs  int // E_k: distinct ids to bias every id
	SketchBytes  int // memory the defender spends for this sketch shape
	EffortsRatio float64
}

// NewPlan computes the effort table entry for the given sketch shape and
// failure probability eta (the attack succeeds with probability > 1 − eta).
func NewPlan(k, s int, eta float64) (Plan, error) {
	l, err := urn.TargetedEffort(k, s, eta)
	if err != nil {
		return Plan{}, fmt.Errorf("adversary: targeted effort: %w", err)
	}
	e, err := urn.FloodingEffort(k, eta)
	if err != nil {
		return Plan{}, fmt.Errorf("adversary: flooding effort: %w", err)
	}
	return Plan{
		K: k, S: s, Eta: eta,
		TargetedIDs:  l,
		FloodingIDs:  e,
		SketchBytes:  k * s * 8,
		EffortsRatio: float64(e) / float64(l),
	}, nil
}

// Peak returns the composite pmf of a peak attack over a population of n
// ids: the adversary makes one id (target) carry `fraction` of the whole
// stream while the legitimate base distribution carries the rest. With
// fraction = 0.5 over a uniform base of weight 50 per id this reproduces
// Figure 7a's 50 000-vs-50 stream.
func Peak(basePMF []float64, target uint64, fraction float64) ([]float64, error) {
	n := len(basePMF)
	if int(target) >= n {
		return nil, fmt.Errorf("adversary: target %d outside population [0,%d)", target, n)
	}
	if !(fraction > 0 && fraction < 1) {
		return nil, fmt.Errorf("adversary: fraction must be in (0,1), got %v", fraction)
	}
	point := make([]float64, n)
	point[target] = 1
	return stream.MixPMF([]float64{1 - fraction, fraction}, basePMF, point)
}

// OverRepresent returns the composite pmf in which the given malicious ids
// collectively carry `fraction` of the stream (uniformly among themselves)
// on top of the base distribution. It models both the targeted attack
// (ids = the L_{k,s} decoys) and the flooding attack (ids = the E_k decoys)
// of Section V, as well as Figure 11's sweep over the number of malicious
// identifiers.
func OverRepresent(basePMF []float64, ids []uint64, fraction float64) ([]float64, error) {
	n := len(basePMF)
	if len(ids) == 0 {
		return nil, fmt.Errorf("adversary: no malicious ids")
	}
	if !(fraction > 0 && fraction < 1) {
		return nil, fmt.Errorf("adversary: fraction must be in (0,1), got %v", fraction)
	}
	inject := make([]float64, n)
	for _, id := range ids {
		if int(id) >= n {
			return nil, fmt.Errorf("adversary: malicious id %d outside population [0,%d)", id, n)
		}
		inject[id] += 1
	}
	return stream.MixPMF([]float64{1 - fraction, fraction}, basePMF, inject)
}

// FirstIDs returns the ids {0, …, count−1}, a convenient malicious-id block
// for experiments (the analysis is invariant under relabelling).
func FirstIDs(count int) []uint64 {
	ids := make([]uint64, count)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return ids
}
