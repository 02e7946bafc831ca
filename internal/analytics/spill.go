package analytics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Row is one spilled (or snapshotted) aggregation row: the count of one
// (kind, verdict, domain, rule) combination inside one time bucket. It is
// the JSONL spill line, the wire shape inside /admin/analytics bucket
// snapshots, and the input currency of adwars-report -live.
type Row struct {
	Bucket  time.Time `json:"bucket"`
	DurS    int       `json:"dur_s"`
	Kind    string    `json:"kind"`
	Verdict string    `json:"verdict"`
	Domain  string    `json:"domain,omitempty"`
	Rule    string    `json:"rule,omitempty"`
	Ordinal int32     `json:"ordinal"`
	Count   uint64    `json:"count"`
	// Overflow marks the fold-row of a bucket that hit its key cap: Count
	// decisions happened whose exact key was not retained.
	Overflow bool `json:"overflow,omitempty"`
}

// spillPattern names spill files so lexical order is write order.
const spillPattern = "analytics-%06d.jsonl"

// spillWriter appends JSONL rows to rotating files in one directory.
// Single-writer (the collector's consumer goroutine).
type spillWriter struct {
	dir      string
	maxBytes int64
	seq      int
	f        *os.File
	bw       *bufio.Writer
	written  int64
	rows     uint64
	files    uint64
	err      error // first write error; later writes are skipped
}

func newSpillWriter(dir string, maxBytes int64) (*spillWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sw := &spillWriter{dir: dir, maxBytes: maxBytes}
	if err := sw.rotate(); err != nil {
		return nil, err
	}
	return sw, nil
}

// rotate closes the current file (if any) and opens the next in sequence.
func (sw *spillWriter) rotate() error {
	if sw.bw != nil {
		sw.bw.Flush()
		sw.f.Close()
	}
	sw.seq++
	path := filepath.Join(sw.dir, fmt.Sprintf(spillPattern, sw.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	sw.f = f
	sw.bw = bufio.NewWriter(f)
	sw.written = 0
	sw.files++
	return nil
}

// write appends one row, rotating first if the current file is past its
// size budget. Errors latch: spill is telemetry, a full disk must not
// take the consumer down with it.
func (sw *spillWriter) write(row *Row) {
	if sw.err != nil {
		return
	}
	if sw.written >= sw.maxBytes {
		if sw.err = sw.rotate(); sw.err != nil {
			return
		}
	}
	data, err := json.Marshal(row)
	if err != nil {
		sw.err = err
		return
	}
	data = append(data, '\n')
	if _, err := sw.bw.Write(data); err != nil {
		sw.err = err
		return
	}
	sw.written += int64(len(data))
	sw.rows++
}

// close flushes and closes the current file, reporting the first error
// seen anywhere in the writer's life.
func (sw *spillWriter) close() error {
	if sw.bw != nil {
		if err := sw.bw.Flush(); err != nil && sw.err == nil {
			sw.err = err
		}
		if err := sw.f.Close(); err != nil && sw.err == nil {
			sw.err = err
		}
		sw.bw, sw.f = nil, nil
	}
	return sw.err
}

// ReadSpillFile parses one JSONL spill file into rows. A final line with no
// newline that does not parse is what a crash mid-write leaves, and is
// dropped; any other line that does not parse is an error.
func ReadSpillFile(path string) ([]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []Row
	r := bufio.NewReader(f)
	for line := 1; ; line++ {
		data, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, fmt.Errorf("%s: %w", path, rerr)
		}
		if text := bytes.TrimSuffix(data, []byte{'\n'}); len(text) > 0 {
			var row Row
			if err := json.Unmarshal(text, &row); err != nil {
				if rerr == io.EOF {
					break
				}
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
			rows = append(rows, row)
		}
		if rerr == io.EOF {
			break
		}
	}
	return rows, nil
}

// ReadSpillDir reads every spill file in dir, in write order.
func ReadSpillDir(dir string) ([]Row, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "analytics-*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("analytics: no spill files in %s", dir)
	}
	sort.Strings(paths)
	var rows []Row
	for _, p := range paths {
		r, err := ReadSpillFile(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}
