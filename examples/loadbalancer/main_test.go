package main

import "testing"

// TestSamplingServiceSpreadsLoad: under a flood that advertises the
// attacker in 60% of the membership stream, the naive dispatcher sends it
// most requests and the sampling service almost none, while both reach
// every honest backend. The service is asynchronous, so the exact counts
// vary between runs; the bounds do not.
func TestSamplingServiceSpreadsLoad(t *testing.T) {
	naive, sampled, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if naive.attackerShare <= 0.5 {
		t.Errorf("naive attacker share %.3f, want > 0.5", naive.attackerShare)
	}
	if sampled.attackerShare >= 0.1 {
		t.Errorf("sampled attacker share %.3f, want < 0.1", sampled.attackerShare)
	}
	if naive.honestHit != backends || sampled.honestHit != backends {
		t.Errorf("honest backends hit: naive %d, sampled %d, want %d each",
			naive.honestHit, sampled.honestHit, backends)
	}
}
