package analytics

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func testRows(n int) []Row {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, Row{
			Bucket:  base.Add(time.Duration(i) * 10 * time.Second),
			DurS:    10,
			Kind:    "match",
			Verdict: "blocked",
			Domain:  "ads.example",
			Rule:    "||ads.example^$script",
			Ordinal: int32(i),
			Count:   uint64(i + 1),
		})
	}
	return rows
}

// TestSpillRoundTrip writes rows through the writer and reads them back
// verbatim through ReadSpillDir.
func TestSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sw, err := newSpillWriter(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := testRows(25)
	for i := range want {
		sw.write(&want[i])
	}
	if err := sw.close(); err != nil {
		t.Fatal(err)
	}
	if sw.rows != 25 || sw.files != 1 {
		t.Fatalf("rows=%d files=%d, want 25/1", sw.rows, sw.files)
	}
	got, err := ReadSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestSpillRotation forces a tiny per-file budget: the writer must rotate
// into multiple files whose lexical order preserves write order.
func TestSpillRotation(t *testing.T) {
	dir := t.TempDir()
	sw, err := newSpillWriter(dir, 200) // a few rows per file
	if err != nil {
		t.Fatal(err)
	}
	want := testRows(40)
	for i := range want {
		sw.write(&want[i])
	}
	if err := sw.close(); err != nil {
		t.Fatal(err)
	}
	if sw.files < 3 {
		t.Fatalf("files = %d, want rotation into ≥ 3", sw.files)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "analytics-*.jsonl"))
	if uint64(len(paths)) != sw.files {
		t.Fatalf("%d files on disk, writer says %d", len(paths), sw.files)
	}
	got, err := ReadSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation scrambled rows: got %d rows", len(got))
	}
}

// TestReadSpillDirEmpty reports a clear error instead of an empty report.
func TestReadSpillDirEmpty(t *testing.T) {
	if _, err := ReadSpillDir(t.TempDir()); err == nil {
		t.Fatal("ReadSpillDir on an empty dir returned nil error")
	}
}

// TestSpillCrashAtEveryByte: a crash stops the spill at any byte of its
// current file, the files it rotated out of already whole. Cut at every byte
// of a real rotated spill, the directory reads without error and yields
// exactly the rows whose line the cut holds whole, in write order; a line
// that does not parse before the end of a file is still an error.
func TestSpillCrashAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	sw, err := newSpillWriter(dir, 400)
	if err != nil {
		t.Fatal(err)
	}
	want := testRows(12)
	want[3].Overflow, want[5].Domain, want[7].Rule = true, "", ""
	for i := range want {
		sw.write(&want[i])
	}
	if err := sw.close(); err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "analytics-*.jsonl"))
	if len(paths) < 3 {
		t.Fatalf("%d spill files, want rotation into ≥ 3", len(paths))
	}
	crash := t.TempDir()
	whole := 0 // rows in the files before the one being cut
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cut := filepath.Join(crash, filepath.Base(p))
		for n := 0; n <= len(data); n++ {
			if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := ReadSpillDir(crash)
			if err != nil {
				t.Fatalf("%s cut at %d of %d: %v", filepath.Base(p), n, len(data), err)
			}
			// A row is whole once its closing brace is in the cut.
			rows := whole + bytes.Count(data[:n], []byte("}\n"))
			if n > 0 && data[n-1] == '}' {
				rows++
			}
			if len(got) != rows || rows > 0 && !reflect.DeepEqual(got, want[:rows]) {
				t.Fatalf("%s cut at %d of %d: read %d rows, want the first %d", filepath.Base(p), n, len(data), len(got), rows)
			}
		}
		whole += bytes.Count(data, []byte("\n"))
	}
	if whole != len(want) {
		t.Fatalf("the files hold %d rows, %d were written", whole, len(want))
	}
	// Damage before the end of a file is not a crash's: it is refused.
	if err := os.WriteFile(filepath.Join(crash, "analytics-000000.jsonl"), []byte("{\"bucket\":\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSpillDir(crash); err == nil {
		t.Fatal("a torn line followed by a newline was read without error")
	}
}
