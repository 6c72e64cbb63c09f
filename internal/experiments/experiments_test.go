package experiments

import (
	"strconv"
	"testing"
)

func quickCfg() Config {
	return Config{Trials: 2, Seed: 7, Workers: 4, Quick: true}
}

// parseF parses a formatted table cell back to a float.
func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func parseI(t *testing.T, cell string) int {
	t.Helper()
	v, err := strconv.Atoi(cell)
	if err != nil {
		t.Fatalf("cell %q is not an integer: %v", cell, err)
	}
	return v
}

// TestRegistryRunsEverything smoke-runs every registered experiment in
// quick mode and validates the table structure.
func TestRegistryRunsEverything(t *testing.T) {
	order, reg := Registry()
	if len(order) != len(reg) {
		t.Fatalf("registry order has %d entries for %d runners", len(order), len(reg))
	}
	for _, id := range order {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			runner, ok := reg[id]
			if !ok {
				t.Fatalf("no runner registered for %q", id)
			}
			tbl, err := runner(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tbl.ID != id {
				t.Errorf("table id %q, want %q", tbl.ID, id)
			}
			if tbl.Title == "" || len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
				t.Fatalf("%s: degenerate table %+v", id, tbl)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("%s row %d has %d cells for %d columns", id, i, len(row), len(tbl.Columns))
				}
			}
		})
	}
}

// TestFig3MatchesPaperAnchors pins the L_{k,s} values at s=10 that can be
// read off the paper (Table I's k=50 and k=250 rows at eta=0.1).
func TestFig3MatchesPaperAnchors(t *testing.T) {
	tbl, err := Fig3(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[int]int{50: 227, 250: 1139}
	col := -1
	for i, c := range tbl.Columns {
		if c == "L(eta=0.1)" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("eta=0.1 column missing in %v", tbl.Columns)
	}
	found := 0
	for _, row := range tbl.Rows {
		k := parseI(t, row[0])
		if want, ok := anchors[k]; ok {
			found++
			if got := parseI(t, row[col]); got != want {
				t.Errorf("L_{%d,10}(0.1) = %d, want %d", k, got, want)
			}
		}
	}
	if found != len(anchors) {
		t.Fatalf("anchors missing from sweep")
	}
}

// TestFig4Monotone: E_k must increase with k and with smaller eta.
func TestFig4Monotone(t *testing.T) {
	tbl, err := Fig4(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < len(tbl.Rows); r++ {
		for c := 1; c < len(tbl.Columns); c++ {
			if parseI(t, tbl.Rows[r][c]) <= parseI(t, tbl.Rows[r-1][c]) {
				t.Fatalf("E not increasing in k at row %d col %d", r, c)
			}
		}
	}
	for _, row := range tbl.Rows {
		for c := 2; c < len(tbl.Columns); c++ {
			if parseI(t, row[c]) < parseI(t, row[c-1]) {
				t.Fatalf("E not increasing as eta shrinks in row %v", row)
			}
		}
	}
}

// TestTable1OursColumnMatchesPaperForSmallK verifies the regenerated
// Table I reports identical L values to the paper's print for k <= 50, and
// pins the (10, 5, 0.1) row: L 38, E_k 44 and the all-rows E_{k,s} 59.
func TestTable1OursColumnMatchesPaperForSmallK(t *testing.T) {
	tbl, err := Table1(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		k := parseI(t, row[0])
		if k > 50 {
			continue
		}
		if row[3] != row[4] {
			t.Errorf("k=%s s=%s eta=%s: ours %s != paper %s", row[0], row[1], row[2], row[3], row[4])
		}
		if parseI(t, row[7]) <= parseI(t, row[5]) {
			t.Errorf("k=%s s=%s eta=%s: E_{k,s} %s not above E_k %s", row[0], row[1], row[2], row[7], row[5])
		}
	}
	first := tbl.Rows[0]
	if first[0] != "10" || first[1] != "5" || first[2] != "0.1" {
		t.Fatalf("first row %v, want k=10 s=5 eta=0.1", first)
	}
	if first[3] != "38" || first[5] != "44" || first[7] != "59" {
		t.Errorf("(10, 5, 0.1) reads L %s, E_k %s, E_{k,s} %s; want 38, 44, 59", first[3], first[5], first[7])
	}
}

// TestTable2ExactStatistics: the synthetic traces must reproduce the spec
// statistics exactly (quick mode scales them, so compare to the scaled spec).
func TestTable2ExactStatistics(t *testing.T) {
	cfg := quickCfg()
	tbl, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := traceSpecs(cfg)
	if len(tbl.Rows) != len(specs) {
		t.Fatalf("%d rows for %d specs", len(tbl.Rows), len(specs))
	}
	for i, row := range tbl.Rows {
		if parseI(t, row[1]) != specs[i].M {
			t.Errorf("%s: m = %s, want %d", row[0], row[1], specs[i].M)
		}
		if parseI(t, row[2]) != specs[i].N {
			t.Errorf("%s: n = %s, want %d", row[0], row[2], specs[i].N)
		}
		if parseI(t, row[3]) != int(specs[i].MaxFreq) {
			t.Errorf("%s: max freq = %s, want %d", row[0], row[3], specs[i].MaxFreq)
		}
	}
}

// TestFig5ZipfShape: every trace's rank/frequency series must be
// non-increasing (sorted ranks) with a strictly dominant head.
func TestFig5ZipfShape(t *testing.T) {
	tbl, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col < len(tbl.Columns); col++ {
		prev := -1
		for _, row := range tbl.Rows {
			if row[col] == "-" {
				continue
			}
			v := parseI(t, row[col])
			if prev >= 0 && v > prev {
				t.Fatalf("%s: frequencies increase along ranks", tbl.Columns[col])
			}
			prev = v
		}
	}
}

// TestFig6Shape: the input stream's peak frequency must dwarf the
// omniscient output's peak at the final checkpoint, with knowledge-free in
// between (the visual claim of the isopleth).
func TestFig6Shape(t *testing.T) {
	tbl, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	maxIn := parseF(t, last[1])
	maxKf := parseF(t, last[2])
	maxOm := parseF(t, last[3])
	// The isopleth's ordering claim: input band > knowledge-free > omniscient,
	// with the input far above the omniscient output. (At full scale the
	// input/kf separation widens further; quick mode checks the ordering.)
	if !(maxIn > maxKf && maxKf > maxOm) {
		t.Fatalf("peak ordering broken: in=%v kf=%v om=%v", maxIn, maxKf, maxOm)
	}
	if maxIn < 2*maxOm {
		t.Fatalf("input peak %v not well above omniscient %v", maxIn, maxOm)
	}
}

// TestFig7aShape: the paper's claims for the peak attack — knowledge-free
// divides the peak by an order of magnitude, omniscient restores near
// uniformity (attacked/correct ratio near 1).
func TestFig7aShape(t *testing.T) {
	tbl, err := Fig7a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: input, knowledge-free, omniscient. Column 3 = attacked/correct.
	rIn := parseF(t, tbl.Rows[0][3])
	rKf := parseF(t, tbl.Rows[1][3])
	rOm := parseF(t, tbl.Rows[2][3])
	if !(rIn > 100) {
		t.Fatalf("input attack ratio %v too small for a peak attack", rIn)
	}
	if !(rKf < rIn/5) {
		t.Fatalf("knowledge-free ratio %v not well below input %v", rKf, rIn)
	}
	if !(rOm < 3) {
		t.Fatalf("omniscient ratio %v not near uniform", rOm)
	}
	// Gains: omniscient above knowledge-free, both positive.
	gKf := parseF(t, tbl.Rows[1][4])
	gOm := parseF(t, tbl.Rows[2][4])
	if !(gOm > 0.9 && gKf > 0.3 && gOm >= gKf-0.05) {
		t.Fatalf("gain shape broken: kf=%v om=%v", gKf, gOm)
	}
}

// TestFig7bShape: under the Poisson band attack the knowledge-free strategy
// reduces the malicious band's over-representation; omniscient removes it.
func TestFig7bShape(t *testing.T) {
	tbl, err := Fig7b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rIn := parseF(t, tbl.Rows[0][3])
	rKf := parseF(t, tbl.Rows[1][3])
	rOm := parseF(t, tbl.Rows[2][3])
	if !(rIn > rKf && rKf > rOm) {
		t.Fatalf("band ratio ordering broken: in=%v kf=%v om=%v", rIn, rKf, rOm)
	}
}

// TestFig8Shape: both strategies' gains are high across population sizes;
// omniscient dominates.
func TestFig8Shape(t *testing.T) {
	tbl, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		gKf := parseF(t, row[4])
		gOm := parseF(t, row[5])
		if gOm < 0.9 {
			t.Errorf("n=%s: omniscient gain %v below 0.9", row[0], gOm)
		}
		if gKf < 0.5 {
			t.Errorf("n=%s: knowledge-free gain %v below 0.5", row[0], gKf)
		}
		if gOm < gKf-0.05 {
			t.Errorf("n=%s: omniscient %v below knowledge-free %v", row[0], gOm, gKf)
		}
	}
}

// TestFig9GainGrowsWithM: the gains must not degrade as the stream grows
// (stationary regime reached early, then improves).
func TestFig9GainGrowsWithM(t *testing.T) {
	tbl, err := Fig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := parseF(t, tbl.Rows[0][4])
	last := parseF(t, tbl.Rows[len(tbl.Rows)-1][4])
	if last < first-0.05 {
		t.Fatalf("knowledge-free gain degraded with m: %v -> %v", first, last)
	}
}

// TestFig10GainGrowsWithC: larger sampling memory is a stronger defense
// (the paper's headline remedy).
func TestFig10GainGrowsWithC(t *testing.T) {
	for _, f := range []Runner{Fig10a, Fig10b} {
		tbl, err := f(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		first := parseF(t, tbl.Rows[0][4])
		last := parseF(t, tbl.Rows[len(tbl.Rows)-1][4])
		if last < first {
			t.Fatalf("%s: gain did not grow with c: %v -> %v", tbl.ID, first, last)
		}
	}
}

// TestFig11DegradesWithMaliciousIDs: the knowledge-free gain shrinks as the
// number of over-represented ids grows (paper: vulnerable past ~10% of n).
func TestFig11DegradesWithMaliciousIDs(t *testing.T) {
	tbl, err := Fig11(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := parseF(t, tbl.Rows[0][3])
	last := parseF(t, tbl.Rows[len(tbl.Rows)-1][3])
	if !(first > last) {
		t.Fatalf("gain did not degrade with malicious ids: %v -> %v", first, last)
	}
	if first < 0.3 {
		t.Fatalf("gain %v at 10 malicious ids unexpectedly low", first)
	}
}

// TestFig12Shape mirrors the paper's bar-chart ordering: the knowledge-free
// sampler at c=k=log n stays close to the input, the c=k=0.01n sizing is at
// least as good, and the omniscient output is far below the input. (The
// full-scale run — recorded in EXPERIMENTS.md — additionally shows
// d(kf, 0.01n) clearly below d(input).)
func TestFig12Shape(t *testing.T) {
	tbl, err := Fig12(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		din := parseF(t, row[1])
		dLog := parseF(t, row[2])
		dPct := parseF(t, row[3])
		dOm := parseF(t, row[4])
		if dPct > dLog*1.1+0.01 {
			t.Errorf("%s: 0.01n sizing (%v) worse than log n sizing (%v)", row[0], dPct, dLog)
		}
		if dOm >= dPct {
			t.Errorf("%s: omniscient (%v) not below knowledge-free (%v)", row[0], dOm, dPct)
		}
		if dOm > din/2 {
			t.Errorf("%s: omniscient divergence %v not well below input %v", row[0], dOm, din)
		}
	}
}

// TestThm4DefectsVanish: every validation defect must be at numerical
// noise level.
func TestThm4DefectsVanish(t *testing.T) {
	tbl, err := Thm4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		for c := 4; c <= 6; c++ {
			if v := parseF(t, row[c]); v > 1e-8 {
				t.Errorf("n=%s c=%s: defect %s = %v", row[0], row[1], tbl.Columns[c], v)
			}
		}
	}
}

// TestAblationMinWiseShape: the min-wise baseline must be static (zero
// late-half changes, one distinct output) while knowledge-free keeps mixing.
func TestAblationMinWiseShape(t *testing.T) {
	tbl, err := AblationMinWise(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	kfDistinct := parseI(t, tbl.Rows[0][1])
	mwDistinct := parseI(t, tbl.Rows[1][1])
	mwChanges := parseI(t, tbl.Rows[1][2])
	if mwDistinct != 1 || mwChanges != 0 {
		t.Fatalf("min-wise not static: distinct=%d changes=%d", mwDistinct, mwChanges)
	}
	if kfDistinct < 50 {
		t.Fatalf("knowledge-free only emitted %d distinct ids late", kfDistinct)
	}
}

// TestAblationEvictShape: uniform eviction must beat both non-constant
// families.
func TestAblationEvictShape(t *testing.T) {
	tbl, err := AblationEvict(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	gUniform := parseF(t, tbl.Rows[0][2])
	gFreq := parseF(t, tbl.Rows[1][2])
	gRare := parseF(t, tbl.Rows[2][2])
	if !(gUniform > gFreq && gUniform > gRare) {
		t.Fatalf("uniform eviction %v not dominant (freq %v, rare %v)", gUniform, gFreq, gRare)
	}
}

// TestAblationCUShape: the band division must grow with the sketch width k
// for the plain update (the Section V linear-in-k defence).
func TestAblationCUShape(t *testing.T) {
	tbl, err := AblationCU(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var plainDiv []float64
	for _, row := range tbl.Rows {
		if row[1] == "plain" {
			plainDiv = append(plainDiv, parseF(t, row[4]))
		}
	}
	if len(plainDiv) < 2 {
		t.Fatalf("expected at least two plain rows, got %d", len(plainDiv))
	}
	if plainDiv[len(plainDiv)-1] <= plainDiv[0] {
		t.Fatalf("band division did not grow with k: %v", plainDiv)
	}
}

// TestAblationChurnShape: with sketch halving the sampler defends the
// replaced, attacked population faster (lower attacked-id share in the
// final-quarter output and lower excess divergence).
func TestAblationChurnShape(t *testing.T) {
	tbl, err := AblationChurn(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	plainShare := parseF(t, tbl.Rows[0][1])
	halveShare := parseF(t, tbl.Rows[1][1])
	if halveShare >= plainShare {
		t.Fatalf("halving did not reduce the attacked-id share: plain %v vs halving %v", plainShare, halveShare)
	}
	plainExcess := parseF(t, tbl.Rows[0][2])
	halveExcess := parseF(t, tbl.Rows[1][2])
	if halveExcess >= plainExcess {
		t.Fatalf("halving did not reduce excess divergence: plain %v vs halving %v", plainExcess, halveExcess)
	}
}

// TestTransientShape: TV distances decrease over time, and heavier bias
// yields a larger mixing time.
func TestTransientShape(t *testing.T) {
	tbl, err := Transient(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		for c := 4; c <= 6; c++ {
			if parseF(t, row[c]) > parseF(t, row[c-1])+1e-12 {
				t.Fatalf("TV increased along checkpoints in row %v", row)
			}
		}
	}
	// Quick mode keeps the (6,2) pair at alpha 1 and 3: the heavier bias
	// must mix more slowly.
	if len(tbl.Rows) >= 2 {
		mild := parseI(t, tbl.Rows[0][7])
		heavy := parseI(t, tbl.Rows[1][7])
		if heavy <= mild {
			t.Fatalf("heavier bias mixed faster: %d vs %d", heavy, mild)
		}
	}
}

// TestGossipPositiveGains: the overlay experiment must report positive mean
// steady-state gains at both attack strengths.
func TestGossipPositiveGains(t *testing.T) {
	tbl, err := Gossip(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if g := parseF(t, row[2]); g <= 0 {
			t.Errorf("burst=%s: mean gain %v not positive", row[0], g)
		}
		if p := parseF(t, row[1]); p <= 0 || p >= 1 {
			t.Errorf("burst=%s: pressure %v out of range", row[0], p)
		}
	}
}

// TestTournamentTable: the tournament table carries one row per attack
// cell of RunTournament at the config's seed, with its G_KL.
func TestTournamentTable(t *testing.T) {
	tbl, err := tournament(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTournament(TournamentConfig{Seed: quickCfg().Seed})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Columns[0] != "attack" || tbl.Columns[3] != "G_KL" {
		t.Fatalf("columns %v, want attack first and G_KL at index 3", tbl.Columns)
	}
	if len(tbl.Rows) != len(res.Cells) {
		t.Fatalf("%d rows for %d tournament cells", len(tbl.Rows), len(res.Cells))
	}
	for i, cell := range res.Cells {
		row := tbl.Rows[i]
		if row[0] != cell.Attack || row[3] != fmtF(cell.Gain) || row[4] != fmtInt(cell.Windows) {
			t.Errorf("row %v, want attack %s G_KL %s windows %d", row, cell.Attack, fmtF(cell.Gain), cell.Windows)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Trials != 10 || cfg.Workers != 4 || cfg.Seed != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestLogGrid(t *testing.T) {
	g := logGrid(1, 1000, 10)
	if g[0] != 1 || g[len(g)-1] != 1000 {
		t.Fatalf("grid endpoints wrong: %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not strictly increasing: %v", g)
		}
	}
	if got := logGrid(5, 5, 3); len(got) != 2 || got[0] != 5 {
		t.Fatalf("degenerate grid = %v", got)
	}
}
