package main

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func TestPlanOutput(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-k", "10", "-s", "5", "-eta", "0.1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "L_{k,s} = 38") {
		t.Errorf("missing targeted effort in output:\n%s", out)
	}
	if !strings.Contains(out, "E_k     = 44") {
		t.Errorf("missing flooding effort in output:\n%s", out)
	}
	if !strings.Contains(out, "400 bytes") {
		t.Errorf("missing sketch size in output:\n%s", out)
	}
	if strings.Contains(out, "empirical") {
		t.Error("verification printed without -verify")
	}
}

func TestVerifyRuns(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-k", "8", "-s", "3", "-eta", "0.2", "-verify", "-trials", "300"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "empirical check (300 trials)") {
		t.Errorf("missing verification block:\n%s", out)
	}
	if !strings.Contains(out, "targeted success") || !strings.Contains(out, "flooding success") {
		t.Errorf("missing success lines:\n%s", out)
	}
}

func TestBadParameters(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-k", "0"}, &sb); err == nil {
		t.Error("k=0 should fail")
	}
	if err := run([]string{"-eta", "2"}, &sb); err == nil {
		t.Error("eta=2 should fail")
	}
	if err := run([]string{"-nope"}, &sb); err == nil {
		t.Error("unknown flag should fail")
	}
}

// TestStrategyTournamentText runs the small tournament end to end and
// checks the text table lists every attack.
func TestStrategyTournamentText(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-tournament", "-population", "64", "-capacity", "16",
		"-ids", "4096", "-window", "1024", "-k", "16", "-s", "4"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"G_KL", "knowledge-free",
		"targeted-flood", "ballot-stuffing", "churn-storm", "slow-trickle"} {
		if !strings.Contains(out, want) {
			t.Errorf("tournament table missing %q:\n%s", want, out)
		}
	}
}

// TestStrategyTournamentJSONAndFilter checks -json output, that explicit -k
// and -s reach the tournament, and that the retired -strategy filter is no
// longer a flag.
func TestStrategyTournamentJSONAndFilter(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-tournament", "-json", "-k", "12", "-s", "3",
		"-population", "64", "-capacity", "16", "-ids", "4096", "-window", "1024"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Config struct{ K, S int } `json:"config"`
		Cells  []struct {
			Attack string `json:"attack"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &res); err != nil {
		t.Fatalf("tournament JSON does not parse: %v\n%s", err, sb.String())
	}
	if len(res.Cells) != 4 {
		t.Fatalf("tournament has %d cells, want 4", len(res.Cells))
	}
	if res.Config.K != 12 || res.Config.S != 3 {
		t.Fatalf("explicit -k 12 -s 3 ran a %dx%d sketch", res.Config.K, res.Config.S)
	}
	if err := run([]string{"-tournament", "-strategy", "basalt"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-strategy: error %v, want a flag-parsing failure", err)
	}
}

// TestTournamentReferencePointByDefault: with no sketch flags the tournament
// runs at its 16×4 reference point, not the effort calculator's 50×10 (at
// which the 256-id population freezes Γ and every output KL reads ln 8), and
// the knowledge-free sampler strips most of the targeted flood.
func TestTournamentReferencePointByDefault(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-tournament"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "sketch 16x4") {
		t.Fatalf("default tournament did not run at 16x4:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "targeted-flood" {
			if gain, err := strconv.ParseFloat(f[3], 64); err != nil || gain <= 0.5 {
				t.Fatalf("targeted-flood G_KL %q, want > 0.5:\n%s", f[3], out)
			}
			return
		}
	}
	t.Fatalf("no targeted-flood row:\n%s", out)
}
