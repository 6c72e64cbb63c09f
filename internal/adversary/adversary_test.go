package adversary

import (
	"fmt"
	"math"
	"testing"

	"nodesampling/internal/hashing"
	"nodesampling/internal/rng"
	"nodesampling/internal/stream"
	"nodesampling/internal/urn"
)

func TestNewPlanMatchesTableI(t *testing.T) {
	p, err := NewPlan(10, 5, 1e-1)
	if err != nil {
		t.Fatal(err)
	}
	if p.TargetedIDs != 38 || p.FloodingIDs != 44 {
		t.Fatalf("plan (k=10, s=5, eta=0.1) = L %d, E %d; want 38, 44", p.TargetedIDs, p.FloodingIDs)
	}
	if p.SketchBytes != 10*5*8 {
		t.Errorf("SketchBytes = %d", p.SketchBytes)
	}
	if math.Abs(p.EffortsRatio-44.0/38.0) > 1e-12 {
		t.Errorf("EffortsRatio = %v", p.EffortsRatio)
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, 5, 0.1); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewPlan(10, 5, 0); err == nil {
		t.Error("eta=0 should fail")
	}
}

func TestPeakAttackComposite(t *testing.T) {
	base := stream.UniformPMF(100)
	pmf, err := Peak(base, 7, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Target carries 0.5 + 0.5/100; everyone else 0.5/100.
	if math.Abs(pmf[7]-0.505) > 1e-12 {
		t.Errorf("target mass = %v, want 0.505", pmf[7])
	}
	if math.Abs(pmf[3]-0.005) > 1e-12 {
		t.Errorf("bystander mass = %v, want 0.005", pmf[3])
	}
	sum := 0.0
	for _, v := range pmf {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("pmf sums to %v", sum)
	}
}

func TestPeakValidation(t *testing.T) {
	base := stream.UniformPMF(10)
	if _, err := Peak(base, 10, 0.5); err == nil {
		t.Error("target outside population should fail")
	}
	if _, err := Peak(base, 1, 0); err == nil {
		t.Error("fraction 0 should fail")
	}
	if _, err := Peak(base, 1, 1); err == nil {
		t.Error("fraction 1 should fail")
	}
}

func TestOverRepresent(t *testing.T) {
	base := stream.UniformPMF(10)
	ids := []uint64{1, 2}
	pmf, err := OverRepresent(base, ids, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// Malicious ids: 0.6/10 + 0.4/2 = 0.26 each; others 0.06.
	for _, id := range ids {
		if math.Abs(pmf[id]-0.26) > 1e-12 {
			t.Errorf("malicious id %d mass = %v, want 0.26", id, pmf[id])
		}
	}
	if math.Abs(pmf[5]-0.06) > 1e-12 {
		t.Errorf("correct id mass = %v, want 0.06", pmf[5])
	}
}

func TestOverRepresentValidation(t *testing.T) {
	base := stream.UniformPMF(10)
	if _, err := OverRepresent(base, nil, 0.4); err == nil {
		t.Error("no ids should fail")
	}
	if _, err := OverRepresent(base, []uint64{11}, 0.4); err == nil {
		t.Error("out-of-range id should fail")
	}
	if _, err := OverRepresent(base, []uint64{1}, 1); err == nil {
		t.Error("fraction 1 should fail")
	}
}

func TestFirstIDs(t *testing.T) {
	ids := FirstIDs(3)
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("FirstIDs(3) = %v", ids)
	}
	if got := FirstIDs(0); len(got) != 0 {
		t.Fatalf("FirstIDs(0) = %v", got)
	}
}

// TestEmpiricalTargetedMatchesTheory closes the loop of Section V-A: the
// measured probability that D decoys pollute every row of the victim must
// match the closed form (1 − (1−1/k)^D)^s.
func TestEmpiricalTargetedMatchesTheory(t *testing.T) {
	const k, s, trials = 10, 5, 4000
	r := rng.New(51)
	for _, decoys := range []int{5, 20, 37, 60} {
		got, err := EmpiricalTargetedSuccess(k, s, decoys, trials, r)
		if err != nil {
			t.Fatal(err)
		}
		perRow := 1 - math.Pow(1-1.0/k, float64(decoys))
		want := math.Pow(perRow, s)
		tol := 4*math.Sqrt(want*(1-want)/trials) + 0.01
		if math.Abs(got-want) > tol {
			t.Errorf("decoys=%d: empirical %v vs theory %v (tol %v)", decoys, got, want, tol)
		}
	}
}

// TestTargetedEffortIsSufficient: injecting L_{k,s} distinct ids achieves
// the promised success probability (the attack side of Table I).
func TestTargetedEffortIsSufficient(t *testing.T) {
	const k, s = 10, 5
	const eta = 0.1
	L, err := urn.TargetedEffort(k, s, eta)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(52)
	got, err := EmpiricalTargetedSuccess(k, s, L, 4000, r)
	if err != nil {
		t.Fatal(err)
	}
	if got < 1-eta-0.03 {
		t.Fatalf("success with L=%d decoys = %v, want > %v", L, got, 1-eta)
	}
	// Far below the threshold the attack must clearly fail.
	weak, err := EmpiricalTargetedSuccess(k, s, L/4, 4000, r)
	if err != nil {
		t.Fatal(err)
	}
	if weak > 0.5 {
		t.Fatalf("success with L/4 decoys = %v, expected well below the threshold", weak)
	}
}

// TestEmpiricalFloodingMatchesTheory: measured all-rows coverage versus
// (P{N_D = k})^s from the occupancy DP.
func TestEmpiricalFloodingMatchesTheory(t *testing.T) {
	const k, s, trials = 10, 3, 3000
	r := rng.New(53)
	for _, decoys := range []int{20, 44, 70} {
		got, err := EmpiricalFloodingSuccess(k, s, decoys, trials, r)
		if err != nil {
			t.Fatal(err)
		}
		occ, err := urn.NewOccupancy(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < decoys; i++ {
			occ.Step()
		}
		want := math.Pow(occ.AllOccupied(), s)
		tol := 4*math.Sqrt(want*(1-want)/trials) + 0.015
		if math.Abs(got-want) > tol {
			t.Errorf("decoys=%d: empirical %v vs theory %v (tol %v)", decoys, got, want, tol)
		}
	}
}

// TestFloodingAllRowsAtLeastSingleRow: the exact all-rows effort dominates
// the paper's single-row E_k, quantifying the approximation in its
// Section V-B.
func TestFloodingAllRowsAtLeastSingleRow(t *testing.T) {
	for _, k := range []int{10, 50} {
		for _, eta := range []float64{1e-1, 1e-3} {
			single, err := urn.FloodingEffort(k, eta)
			if err != nil {
				t.Fatal(err)
			}
			all, err := urn.FloodingEffortAllRows(k, 10, eta)
			if err != nil {
				t.Fatal(err)
			}
			if all < single {
				t.Errorf("k=%d eta=%v: all-rows %d below single-row %d", k, eta, all, single)
			}
			if all > single*2 {
				t.Errorf("k=%d eta=%v: all-rows %d unreasonably above single-row %d", k, eta, all, single)
			}
		}
	}
	// s = 1 must degenerate to the paper's definition.
	single, err := urn.FloodingEffort(25, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	all, err := urn.FloodingEffortAllRows(25, 1, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if single != all {
		t.Errorf("s=1 all-rows %d != E_k %d", all, single)
	}
}

func TestEmpiricalValidation(t *testing.T) {
	r := rng.New(54)
	if _, err := EmpiricalTargetedSuccess(0, 1, 1, 1, r); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := EmpiricalTargetedSuccess(5, 0, 1, 1, r); err == nil {
		t.Error("s=0 should fail")
	}
	if _, err := EmpiricalTargetedSuccess(5, 1, 0, 1, r); err == nil {
		t.Error("decoys=0 should fail")
	}
	if _, err := EmpiricalTargetedSuccess(5, 1, 1, 0, r); err == nil {
		t.Error("trials=0 should fail")
	}
	if _, err := EmpiricalFloodingSuccess(5, 1, 1, 1, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func BenchmarkEmpiricalTargetedSuccess(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		if _, err := EmpiricalTargetedSuccess(10, 5, 38, 100, r); err != nil {
			b.Fatal(err)
		}
	}
}

// EmpiricalTargetedSuccess estimates, over `trials` freshly drawn hash
// families, the probability that `decoys` distinct malicious ids collide
// with a victim id in every one of the s rows of a k-column sketch — the
// event whose probability the L_{k,s} analysis lower-bounds. The victim and
// decoy ids are drawn disjointly at random each trial.
func EmpiricalTargetedSuccess(k, s, decoys, trials int, r *rng.Xoshiro) (float64, error) {
	if err := validateEmpirical(k, s, decoys, trials, r); err != nil {
		return 0, err
	}
	success := 0
	for t := 0; t < trials; t++ {
		fam, err := hashing.NewFamilyMode(s, k, r, hashing.ModeFastrange)
		if err != nil {
			return 0, err
		}
		victim := r.Uint64()
		hit := 0
		for row := 0; row < s; row++ {
			target := fam.Hash(row, victim)
			for d := 0; d < decoys; d++ {
				// Decoy ids are fixed per trial across rows: derive them
				// deterministically from the trial nonce so each row sees
				// the same id set, as in the real attack.
				id := rng.Mix64(victim ^ uint64(d+1))
				if fam.Hash(row, id) == target {
					hit++
					break
				}
			}
		}
		if hit == s {
			success++
		}
	}
	return float64(success) / float64(trials), nil
}

// EmpiricalFloodingSuccess estimates the probability that `decoys` distinct
// ids cover all k columns in every row — the flooding event bounded by E_k.
func EmpiricalFloodingSuccess(k, s, decoys, trials int, r *rng.Xoshiro) (float64, error) {
	if err := validateEmpirical(k, s, decoys, trials, r); err != nil {
		return 0, err
	}
	success := 0
	covered := make([]bool, k)
	for t := 0; t < trials; t++ {
		fam, err := hashing.NewFamilyMode(s, k, r, hashing.ModeFastrange)
		if err != nil {
			return 0, err
		}
		nonce := r.Uint64()
		all := true
		for row := 0; row < s && all; row++ {
			for i := range covered {
				covered[i] = false
			}
			cnt := 0
			for d := 0; d < decoys && cnt < k; d++ {
				id := rng.Mix64(nonce ^ uint64(d+1))
				if col := fam.Hash(row, id); !covered[col] {
					covered[col] = true
					cnt++
				}
			}
			if cnt < k {
				all = false
			}
		}
		if all {
			success++
		}
	}
	return float64(success) / float64(trials), nil
}

func validateEmpirical(k, s, decoys, trials int, r *rng.Xoshiro) error {
	if k < 1 || s < 1 {
		return fmt.Errorf("adversary: sketch shape (k=%d, s=%d) invalid", k, s)
	}
	if decoys < 1 {
		return fmt.Errorf("adversary: decoy count must be positive, got %d", decoys)
	}
	if trials < 1 {
		return fmt.Errorf("adversary: trial count must be positive, got %d", trials)
	}
	if r == nil {
		return fmt.Errorf("adversary: nil random source")
	}
	return nil
}
