package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"adwars/internal/experiments"
)

// TestReportRunsToTheEnd builds adwars-report and runs it as a user does, in
// five worlds: scale 40 seed 42, whose four positives cannot fill Table 3's
// ten folds; scale 40 seed 1, the world bench/ and TestTable3Pinned use;
// scale 20 seed 42; and scale 200 and 400 seed 42, whose one and zero
// positives refuse every §5 step that cross-validates or trains. Each run
// must exit 0 and print its closing line, so a section that refuses its
// input cannot cut the report short, and its "Paper vs measured" table must
// give each target one verdict: ✓ the run keeps the paper's shape, ✗ it
// does not, — a step that reads it was refused. Where a world pins its
// verdicts here, one rune per row in the table's order, a flipped verdict
// fails; the two smallest worlds pin none, since a count of one or two
// flips on noise alone.
func TestReportRunsToTheEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the report")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the report with")
	}
	bin := filepath.Join(t.TempDir(), "adwars-report")
	if out, err := exec.Command(gobin, "build", "-o", bin, "adwars/cmd/adwars-report").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args     []string
		verdicts string
	}{
		{[]string{"-scale", "40", "-seed", "42"}, "✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✓✗✓✓✗✓✓✓✓✗✓✓✓✗✗✗✗✓✓✗✗✗✗✗✗✓✓✓✓✗✗✓✗——✓✓"},
		{[]string{"-scale", "40", "-seed", "1"}, "✓✓✓✓✓✓✓✓✓✓✓✓✓✓✗✓✓✗✓✓✗✓✓✓✓✓✓✓✓✗✓✗✗✓✓✓✗✓✗✗✗✓✓✓✓✗✗✓✓✓✓✓✓"},
		{[]string{"-scale", "20", "-seed", "42"}, "✓✓✓✓✓✓✓✓✗✓✓✓✓✓✓✓✓✗✓✓✓✓✓✓✓✓✓✓✓✗✓✓✓✓✓✓✗✓✓✗✗✓✓✓✓✓✗✓✓✓✓✓✓"},
		{[]string{"-scale", "200", "-seed", "42"}, ""},
		{[]string{"-scale", "400", "-seed", "42"}, ""},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, c.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("adwars-report %v: %v\n%s", c.args, err, stderr.Bytes())
			}
			if !bytes.Contains(stdout.Bytes(), []byte("\nreport complete in ")) {
				t.Fatalf("adwars-report %v exited 0 without its closing line; stdout ends:\n%s",
					c.args, stdout.Bytes()[max(0, stdout.Len()-500):])
			}
			rows := targetRows(t, stdout.String())
			if n := len(experiments.Targets()); len(rows) != n {
				t.Fatalf("%d target rows, %d targets", len(rows), n)
			}
			for i, row := range rows {
				if got := verdict(row); got != "✓" && got != "✗" && got != "—" {
					t.Errorf("row %d has no verdict: %s", i+1, row)
				}
			}
			if c.verdicts == "" {
				return
			}
			want := []rune(c.verdicts)
			if len(rows) != len(want) {
				t.Fatalf("%d target rows, %d pinned verdicts", len(rows), len(want))
			}
			for i, row := range rows {
				if got := verdict(row); got != string(want[i]) {
					t.Errorf("row %d flipped to %s, pinned %c: %s", i+1, got, want[i], row)
				}
			}
		})
	}
}

// targetRows returns the rows of the "Paper vs measured" table in a
// report's stdout, header and rule left out.
func targetRows(t *testing.T, report string) []string {
	t.Helper()
	_, section, ok := strings.Cut(report, "=== Paper vs measured ===")
	if !ok {
		t.Fatal("no \"Paper vs measured\" section")
	}
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "| ID |") {
			rows = append(rows, line)
		}
	}
	return rows
}

// verdict returns a table row's last cell.
func verdict(row string) string {
	cells := strings.Split(strings.TrimSuffix(row, " |"), " | ")
	return cells[len(cells)-1]
}
