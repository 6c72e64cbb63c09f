package experiments

import (
	"math"
	"testing"
)

// TestTournamentTableComplete checks the tournament emits one finite cell
// per attack, in table order, with every window scored.
func TestTournamentTableComplete(t *testing.T) {
	cfg := TournamentConfig{Population: 64, Capacity: 16, Ids: 8192, Window: 1024, Seed: 7}
	res, err := RunTournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attacks := AttackNames()
	if len(attacks) != 4 {
		t.Fatalf("tournament has %d attacks, want 4", len(attacks))
	}
	if len(res.Cells) != len(attacks) {
		t.Fatalf("%d cells, want one per attack %v", len(res.Cells), attacks)
	}
	for i, c := range res.Cells {
		if c.Attack != attacks[i] {
			t.Fatalf("cell %d is %s, want %s", i, c.Attack, attacks[i])
		}
		if c.Windows != 8192/1024-1 {
			t.Fatalf("cell %s scored %d windows, want %d", c.Attack, c.Windows, 8192/1024-1)
		}
		for _, v := range []float64{c.InputKL, c.OutputKL, c.Gain} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("cell %s has a non-finite score: %+v", c.Attack, c)
			}
		}
		if c.InputKL <= 0 {
			t.Fatalf("cell %s input KL %v: the attack did not bias the stream", c.Attack, c.InputKL)
		}
	}
}

// TestTournamentKnowledgeFreeFloodResistance reproduces the paper's
// headline claim at the reference operating point: the knowledge-free
// sampler strips most of a flood's divergence (Figure 7-style), and helps
// against every bulk attack.
func TestTournamentKnowledgeFreeFloodResistance(t *testing.T) {
	res, err := RunTournament(TournamentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]Cell{}
	for _, c := range res.Cells {
		cells[c.Attack] = c
	}
	for _, attack := range []string{"targeted-flood", "ballot-stuffing"} {
		c := cells[attack]
		if c.Gain < 0.5 {
			t.Errorf("%s: gain %v, want ≥ 0.5", attack, c.Gain)
		}
		if c.OutputKL >= c.InputKL/2 {
			t.Errorf("%s: output KL %v not well below input %v", attack, c.OutputKL, c.InputKL)
		}
	}
	if c := cells["churn-storm"]; c.Gain <= 0 || c.OutputKL >= c.InputKL {
		t.Errorf("churn-storm: gain %v (output %v vs input %v), want positive", c.Gain, c.OutputKL, c.InputKL)
	}
}

// TestTournamentValidation covers the config contract.
func TestTournamentValidation(t *testing.T) {
	if _, err := RunTournament(TournamentConfig{Ids: 100, Window: 100}); err == nil {
		t.Fatal("single-window tournament should fail")
	}
	if _, err := RunTournament(TournamentConfig{Population: 8}); err == nil {
		t.Fatal("population below 16 should fail")
	}
}
