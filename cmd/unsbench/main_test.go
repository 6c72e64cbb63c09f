package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestListPrintsAllExperiments(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range []string{"fig3", "fig12", "table1", "table2", "thm4", "transient", "gossip", "tournament"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %q", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "table1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# table1") {
		t.Error("missing table header")
	}
	if !strings.Contains(out, "38") || !strings.Contains(out, "44") {
		t.Error("missing the (10,5,0.1) Table I values")
	}
	if !strings.Contains(out, "# note:") {
		t.Error("missing the note line")
	}
}

func TestRunMultipleQuick(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "fig3, fig4", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# fig3") || !strings.Contains(out, "# fig4") {
		t.Errorf("missing experiment blocks in output:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Error("no -run should fail")
	}
	if err := run([]string{"-run", "nope"}, &sb); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run([]string{"-bogusflag"}, &sb); err == nil {
		t.Error("unknown flag should fail")
	}
}

func TestRowsAreTabSeparatedWithHeaderArity(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "table2", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	var header []string
	for _, line := range lines {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		cells := strings.Split(line, "\t")
		if header == nil {
			header = cells
			continue
		}
		if len(cells) != len(header) {
			t.Fatalf("row arity %d != header arity %d: %q", len(cells), len(header), line)
		}
	}
	if header == nil {
		t.Fatal("no header row found")
	}
}

// block returns the header and data rows of experiment id's TSV block in
// unsbench output.
func block(t *testing.T, out, id string) (title string, header []string, rows [][]string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# "+id+" [") {
			continue
		}
		header = strings.Split(lines[i+1], "\t")
		for _, row := range lines[i+2:] {
			if row == "" || strings.HasPrefix(row, "#") {
				break
			}
			rows = append(rows, strings.Split(row, "\t"))
		}
		return line, header, rows
	}
	t.Fatalf("no %s block in output:\n%s", id, out)
	return "", nil, nil
}

// tournamentBlock runs the tournament id with extra flags and returns its
// title, header and rows.
func tournamentBlock(t *testing.T, extra ...string) (title string, header []string, rows [][]string) {
	t.Helper()
	var sb strings.Builder
	if err := run(append([]string{"-run", "tournament"}, extra...), &sb); err != nil {
		t.Fatal(err)
	}
	return block(t, sb.String(), "tournament")
}

// TestStrategyTournamentText: the tournament table lists all four attacks
// with a G_KL column, and -quick does not shrink it below its 16×4
// reference point.
func TestStrategyTournamentText(t *testing.T) {
	title, header, rows := tournamentBlock(t, "-quick")
	if !strings.Contains(title, "knowledge-free") || !strings.Contains(title, "sketch 16x4") {
		t.Errorf("tournament title %q, want the knowledge-free sampler at 16x4", title)
	}
	if header[3] != "G_KL" {
		t.Fatalf("header %v has no G_KL column at index 3", header)
	}
	var attacks []string
	for _, row := range rows {
		attacks = append(attacks, row[0])
	}
	if got, want := strings.Join(attacks, ","), "targeted-flood,ballot-stuffing,churn-storm,slow-trickle"; got != want {
		t.Errorf("attacks %s, want %s", got, want)
	}
}

// TestTournamentReferencePointByDefault: with no flags beyond the run id the
// tournament runs at its 16×4 reference point, and the knowledge-free
// sampler strips most of the targeted flood.
func TestTournamentReferencePointByDefault(t *testing.T) {
	title, _, rows := tournamentBlock(t)
	if !strings.Contains(title, "sketch 16x4") {
		t.Errorf("tournament did not run at 16x4: %s", title)
	}
	for _, row := range rows {
		if row[0] == "targeted-flood" {
			if gain, err := strconv.ParseFloat(row[3], 64); err != nil || gain <= 0.5 {
				t.Errorf("targeted-flood G_KL %q, want > 0.5", row[3])
			}
			return
		}
	}
	t.Fatalf("no targeted-flood row in %v", rows)
}

// TestPlanOutput: table1's first row is the effort plan at (k, s, η) =
// (10, 5, 0.1): L 38, E_k 44 and the exact all-rows E_{k,s} 59.
func TestPlanOutput(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "table1"}, &sb); err != nil {
		t.Fatal(err)
	}
	_, header, rows := block(t, sb.String(), "table1")
	if header[3] != "L (ours)" || header[5] != "E_k (ours)" || header[7] != "E_{k,s} (all rows)" {
		t.Fatalf("table1 header %v, want L, E_k and E_{k,s} at 3, 5 and 7", header)
	}
	first := rows[0]
	if got := strings.Join(first[:3], ","); got != "10,5,0.1" {
		t.Fatalf("first row %v, want k=10 s=5 eta=0.1", first)
	}
	if first[3] != "38" || first[5] != "44" || first[7] != "59" {
		t.Errorf("(10, 5, 0.1) reads L %s, E_k %s, E_{k,s} %s; want 38, 44, 59", first[3], first[5], first[7])
	}
}

// TestSmallOverlayRun: the gossip id runs the sampling service inside a
// small overlay and reports sybil pressure, steady-state gains in [-1, 1]
// and sample coverage for each burst size.
func TestSmallOverlayRun(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "gossip", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	_, header, rows := block(t, sb.String(), "gossip")
	if got, want := strings.Join(header, ","), "burst,sybil pressure,mean G_KL,min G_KL,max G_KL,coverage"; got != want {
		t.Fatalf("gossip header %s, want %s", got, want)
	}
	if len(rows) != 2 {
		t.Fatalf("gossip rows %v, want one per burst size", rows)
	}
	for _, row := range rows {
		mean, err := strconv.ParseFloat(row[2], 64)
		if err != nil || mean < -1 || mean > 1 {
			t.Errorf("burst %s: mean gain %q out of range", row[0], row[2])
		}
		if cov, err := strconv.Atoi(row[5]); err != nil || cov <= 0 {
			t.Errorf("burst %s: coverage %q, want a positive count", row[0], row[5])
		}
	}
}

// writeLog writes a Common Log Format file of n lines, the i-th naming
// host(i) and requesting url(i), and returns its path.
func writeLog(t *testing.T, n int, host, url func(i int) string) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(host(i) + ` - - [01/Jul/1995:00:00:01 -0400] "GET ` + url(i) + " HTTP/1.0\" 200 100\n")
	}
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte(sb.String()), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRealLogAnalysis: -trace replaces the synthetic traces of table2, fig5
// and fig12 with one loaded log, here 4000 requests from 21 hosts of which
// one sends half.
func TestRealLogAnalysis(t *testing.T) {
	path := writeLog(t, 4000, func(i int) string {
		if i%2 == 0 {
			return "h" + string(rune('a'+i%40/2)) + ".example.com"
		}
		return "evil.example.com"
	}, func(int) string { return "/x" })
	var sb strings.Builder
	if err := run([]string{"-run", "table2,fig5,fig12", "-trace", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	_, _, rows := block(t, out, "table2")
	if len(rows) != 1 || rows[0][0] != "log" {
		t.Fatalf("table2 rows %v, want the one loaded log", rows)
	}
	if m, n, maxFreq := rows[0][1], rows[0][2], rows[0][3]; m != "4000" || n != "21" || maxFreq != "2000" {
		t.Errorf("table2 reads m=%s n=%s max freq=%s, want m=4000 n=21 max freq=2000", m, n, maxFreq)
	}
	if _, header, _ := block(t, out, "fig5"); strings.Join(header, ",") != "rank,log" {
		t.Errorf("fig5 header %v, want rank,log", header)
	}
	_, header, rows := block(t, out, "fig12")
	if len(rows) != 1 || rows[0][0] != "log" || header[4] != "D(omniscient)" {
		t.Fatalf("fig12 header %v rows %v, want one log row with an omniscient column", header, rows)
	}
	din, err1 := strconv.ParseFloat(rows[0][1], 64)
	dOm, err2 := strconv.ParseFloat(rows[0][4], 64)
	if err1 != nil || err2 != nil || din <= dOm {
		t.Errorf("fig12 log row %v: want the omniscient output below the input", rows[0])
	}
}

// TestURLKey: -trace-key url identifies nodes by request target, here one
// popular page and ten rare ones.
func TestURLKey(t *testing.T) {
	path := writeLog(t, 1000, func(int) string { return "h" }, func(i int) string {
		if i%4 == 0 {
			return "/rare" + string(rune('0'+(i/4)%10)) + ".html"
		}
		return "/popular.html"
	})
	var sb strings.Builder
	if err := run([]string{"-run", "table2,fig12", "-trace", path, "-trace-key", "url"}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, _, rows := block(t, sb.String(), "table2"); rows[0][1] != "1000" || rows[0][2] != "11" {
		t.Errorf("table2 row %v, want m=1000 n=11", rows[0])
	}
}

func TestTraceFlagValidation(t *testing.T) {
	path := writeLog(t, 10, func(int) string { return "h" }, func(int) string { return "/" })
	var sb strings.Builder
	if err := run([]string{"-run", "table2", "-trace", path, "-trace-key", "wat"}, &sb); err == nil {
		t.Error("bad -trace-key should fail")
	}
	if err := run([]string{"-run", "table2", "-trace", filepath.Join(t.TempDir(), "missing.log")}, &sb); err == nil {
		t.Error("missing -trace file should fail")
	}
}
