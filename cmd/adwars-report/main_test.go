package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportRunsToTheEnd builds adwars-report and runs it as a user does, in
// three worlds: scale 40 seed 42, whose four positives cannot fill Table 3's
// ten folds; scale 40 seed 1, the world bench/ and TestTable3Pinned use; and
// scale 20 seed 42. Each run must exit 0 and print its closing line, so a
// section that refuses its input cannot cut the report short.
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
	for _, args := range [][]string{
		{"-scale", "40", "-seed", "42"},
		{"-scale", "40", "-seed", "1"},
		{"-scale", "20", "-seed", "42"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("adwars-report %v: %v\n%s", args, err, stderr.Bytes())
			}
			if !bytes.Contains(stdout.Bytes(), []byte("\nreport complete in ")) {
				t.Fatalf("adwars-report %v exited 0 without its closing line; stdout ends:\n%s",
					args, stdout.Bytes()[max(0, stdout.Len()-500):])
			}
		})
	}
}
