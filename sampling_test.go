package nodesampling

import (
	"errors"
	"math"
	"strings"
	"testing"

	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
	"nodesampling/internal/stream"
)

func TestHashIDDeterministicAndSpread(t *testing.T) {
	a := HashString("node-a.example.com:4000")
	b := HashString("node-a.example.com:4000")
	c := HashString("node-b.example.com:4000")
	if a != b {
		t.Fatal("HashString not deterministic")
	}
	if a == c {
		t.Fatal("different names collided")
	}
	if HashID([]byte{1, 2, 3}) == HashID([]byte{1, 2, 4}) {
		t.Fatal("near-identical byte inputs collided")
	}
}

func TestNewSamplerValidation(t *testing.T) {
	if _, err := NewSampler(0); err == nil {
		t.Error("c=0 should fail")
	}
	if _, err := NewSampler(5, WithSketch(0, 5)); err == nil {
		t.Error("bad sketch shape should fail")
	}
	if _, err := NewSampler(5, WithSketchAccuracy(0, 0.5)); err == nil {
		t.Error("bad accuracy should fail")
	}
	if _, err := NewSampler(5, WithSketchAccuracy(0.5, 2)); err == nil {
		t.Error("bad delta should fail")
	}
	if _, err := NewSampler(5, WithStrategy("basalt")); err == nil {
		t.Error("the retired basalt strategy should fail")
	} else if !strings.Contains(err.Error(), "basalt") {
		t.Errorf("error %v does not name basalt", err)
	}
	if names := Strategies(); len(names) != 1 || names[0] != "knowledge-free" {
		t.Errorf("Strategies() = %v, want [knowledge-free]", names)
	}
	if _, err := NewSampler(5, WithStrategy("knowledge-free")); err != nil {
		t.Errorf("knowledge-free strategy: %v", err)
	}
}

func TestNewOmniscientSamplerValidation(t *testing.T) {
	oracle, err := NewCountingOracle(map[NodeID]uint64{1: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOmniscientSampler(0, oracle); err == nil {
		t.Error("c=0 should fail")
	}
	if _, err := NewOmniscientSampler(3, nil); err == nil {
		t.Error("nil oracle should fail")
	}
	if _, err := NewCountingOracle(nil); err == nil {
		t.Error("empty counts should fail")
	}
}

func TestSamplerBasicFlow(t *testing.T) {
	s, err := NewSampler(4, WithSeed(1), WithSketch(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Sample(); ok {
		t.Fatal("sample ok before input")
	}
	out := s.Process(42)
	if out != 42 {
		t.Fatalf("first output %d, want the only id 42", out)
	}
	if id, ok := s.Sample(); !ok || id != 42 {
		t.Fatalf("sample = (%d, %v)", id, ok)
	}
	if mem := s.Memory(); len(mem) != 1 || mem[0] != 42 {
		t.Fatalf("memory = %v", mem)
	}
}

func TestSamplerReproducibleWithSeed(t *testing.T) {
	mk := func() []NodeID {
		s, err := NewSampler(5, WithSeed(9), WithSketch(10, 5))
		if err != nil {
			t.Fatal(err)
		}
		in := rng.New(10)
		out := make([]NodeID, 3000)
		for i := range out {
			out[i] = s.Process(NodeID(in.Uint64n(100)))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed samplers diverged at %d", i)
		}
	}
}

func TestSamplersWithoutSeedDiffer(t *testing.T) {
	// Two unseeded samplers should (overwhelmingly) use different seeds.
	a, err := NewSampler(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSampler(5)
	if err != nil {
		t.Fatal(err)
	}
	in := rng.New(11)
	same := 0
	const steps = 2000
	for i := 0; i < steps; i++ {
		id := NodeID(in.Uint64n(50))
		if a.Process(id) == b.Process(id) {
			same++
		}
	}
	if same == steps {
		t.Fatal("unseeded samplers behaved identically")
	}
}

// TestPublicSamplerUnbiasesAttack is the quickstart scenario through the
// public API: a peak attack stream, measured before and after.
func TestPublicSamplerUnbiasesAttack(t *testing.T) {
	const n, m = 500, 120000
	pmf, err := stream.PeakPMF(n, 7, 50000, 50)
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.NewCategorical(pmf, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(20, WithSeed(22), WithSketch(15, 5))
	if err != nil {
		t.Fatal(err)
	}
	input := metrics.NewHistogram()
	output := metrics.NewHistogram()
	for i := 0; i < m; i++ {
		id := src.Next()
		input.Add(id)
		output.Add(uint64(s.Process(NodeID(id))))
	}
	g, err := metrics.Gain(input, output, n)
	if err != nil {
		t.Fatal(err)
	}
	if g < 0.5 {
		t.Fatalf("public sampler gain %v under peak attack", g)
	}
}

func TestOmniscientSamplerWithCountingOracle(t *testing.T) {
	const n, m = 100, 200000
	pmf := stream.ZipfPMF(n, 2)
	src, err := stream.NewCategorical(pmf, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	// Build the oracle from a recorded pass, as a real deployment would.
	recorded := stream.Collect(src, m)
	counts := make(map[NodeID]uint64)
	for _, id := range recorded {
		counts[NodeID(id)]++
	}
	oracle, err := NewCountingOracle(counts)
	if err != nil {
		t.Fatal(err)
	}
	om, err := NewOmniscientSampler(10, oracle, WithSeed(24))
	if err != nil {
		t.Fatal(err)
	}
	input := metrics.NewHistogram()
	output := metrics.NewHistogram()
	for _, id := range recorded {
		input.Add(id)
		output.Add(uint64(om.Process(NodeID(id))))
	}
	g, err := metrics.Gain(input, output, input.Distinct())
	if err != nil {
		t.Fatal(err)
	}
	if g < 0.9 {
		t.Fatalf("omniscient gain %v, want > 0.9", g)
	}
}

func TestAttackEffortMatchesTableI(t *testing.T) {
	l, e, err := AttackEffort(10, 5, 1e-1)
	if err != nil {
		t.Fatal(err)
	}
	if l != 38 || e != 44 {
		t.Fatalf("AttackEffort(10,5,0.1) = (%d, %d), want (38, 44)", l, e)
	}
	if _, _, err := AttackEffort(0, 5, 0.1); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestOracleAdapterRoundTrip(t *testing.T) {
	oracle, err := NewCountingOracle(map[NodeID]uint64{3: 1, 4: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p := oracle.Prob(3); math.Abs(p-0.25) > 1e-15 {
		t.Fatalf("Prob(3) = %v", p)
	}
	if p := oracle.MinProb(); math.Abs(p-0.25) > 1e-15 {
		t.Fatalf("MinProb = %v", p)
	}
	if p := oracle.Prob(99); p != 0 {
		t.Fatalf("Prob(unknown) = %v", p)
	}
}

func TestErrorsAreWrappedSensibly(t *testing.T) {
	_, err := NewSampler(5, WithSketch(-1, 2))
	if err == nil || err.Error() == "" {
		t.Fatal("expected descriptive error")
	}
	var zero error
	if errors.Is(err, zero) {
		t.Fatal("error unexpectedly matches nil")
	}
}
