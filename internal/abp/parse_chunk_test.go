package abp

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// parseLinesSerial is the line loop parseLines replaced: one pass over the
// whole body on the caller's goroutine. The chunked loop is held to it.
func parseLinesSerial(body string, strict bool) (rules []*Rule, errs []error) {
	lines := strings.Count(body, "\n") + 1
	rules = make([]*Rule, 0, lines)
	slab := make([]Rule, lines)
	for rest, more := body, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		r := &slab[len(rules)]
		err := r.parse(line, nil)
		if err == nil {
			rules = append(rules, r)
			continue
		}
		*r = Rule{}
		if strict || !errors.Is(err, ErrEmptyLine) && !errors.Is(err, ErrCommentLine) {
			errs = append(errs, fmt.Errorf("line %q: %w", line, err))
			if strict {
				return nil, errs
			}
		}
	}
	return rules, errs
}

// chunkLineWidth is the length of every line chunkBody writes, so that where
// cutLines cuts a body depends on its line count alone and putting an odd
// line on a chunk's edge does not move the edge.
const chunkLineWidth = 48

// fill returns pre, i zero-padded and suf, width bytes in all.
func fill(pre string, i int, suf string, width int) string {
	return fmt.Sprintf("%s%0*d%s", pre, width-len(pre)-len(suf), i, suf)
}

// chunkRule is rule line i, of width bytes, in one of six shapes.
func chunkRule(i, width int) string {
	shapes := [][2]string{
		{"||site", ".example^"},
		{"||cdn", ".example/ads.js$script,third-party"},
		{"@@||ok", ".example/ads.js"},
		{"/detect", ".js$script,domain=site1.example"},
		{"site", ".example###ad-slot"},
		{"##.ad-unit-", ""},
	}
	s := shapes[i%len(shapes)]
	return fill(s[0], i, s[1], width)
}

// oddLines are the lines, chunkLineWidth bytes each, that chunkBody puts on
// the first and last line of every chunk: a blank, a comment, a CRLF rule, a
// rule padded with blanks, and two that are no rule.
var oddLines = []func(i int) string{
	func(int) string { return strings.Repeat(" ", chunkLineWidth) },
	func(i int) string { return fill("! comment ", i, "", chunkLineWidth) },
	func(i int) string { return chunkRule(i, chunkLineWidth-1) + "\r" },
	func(i int) string { return "  " + chunkRule(i, chunkLineWidth-4) + "  " },
	func(int) string { return fmt.Sprintf("%-*s", chunkLineWidth, "  ||$script") },
	func(i int) string { return fill("site.example##[", i, "", chunkLineWidth) },
}

// chunkBody is n rule lines with odd lines on the first and last line of
// every chunk cutLines makes of it from chunk from on.
func chunkBody(t *testing.T, n, from int) string {
	t.Helper()
	lines := make([]string, n)
	for i := range lines {
		lines[i] = chunkRule(i, chunkLineWidth)
	}
	chunks, _ := cutLines(strings.Join(lines, "\n"))
	k := 0
	for _, c := range chunks[from:] {
		for _, at := range []int{c.first, c.first + c.lines - 1} {
			lines[at] = oddLines[k%len(oddLines)](at)
			k++
		}
	}
	body := strings.Join(lines, "\n")
	again, _ := cutLines(body)
	if len(again) != len(chunks) {
		t.Fatalf("%d lines: odd lines moved the cuts: %d chunks, then %d", n, len(chunks), len(again))
	}
	for i := range again {
		if again[i].first != chunks[i].first || again[i].lines != chunks[i].lines {
			t.Fatalf("%d lines: odd lines moved chunk %d", n, i)
		}
	}
	return body
}

// TestChunkedParseEqualsSerial: at every GOMAXPROCS, on bodies either side of
// parallelLines and of a deployed list's size, with blank, comment, CRLF,
// padded and malformed lines on the edges of every chunk, the chunked loop
// returns what the serial one does — the same rules in the same order, the
// same errors in line order and, run strict, the earliest line's error and
// no rules, whichever chunks hold errors.
func TestChunkedParseEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{parallelLines - 1, parallelLines, parallelLines + 1, 70_001} {
			chunks, lines := cutLines(chunkBody(t, n, 0))
			wantChunks := procs
			if n < parallelLines {
				wantChunks = 1
			}
			if lines != n || len(chunks) != wantChunks {
				t.Fatalf("GOMAXPROCS %d, %d lines: cut into %d chunks counting %d lines", procs, n, len(chunks), lines)
			}
			for from := range chunks {
				body := chunkBody(t, n, from)
				for _, strict := range []bool{false, true} {
					name := fmt.Sprintf("GOMAXPROCS %d, %d lines, odd lines from chunk %d, strict %v", procs, n, from, strict)
					chunks, lines := cutLines(body)
					got, gotErrs := parseLines(chunks, lines, strict)
					want, wantErrs := parseLinesSerial(body, strict)
					assertSameParse(t, name, got, gotErrs, want, wantErrs)
					if strict && (got != nil || len(gotErrs) != 1) {
						t.Fatalf("%s: %d rules, %d errors, want none and one", name, len(got), len(gotErrs))
					}
				}
				if n < parallelLines {
					break // one chunk: the odd lines are on its edges already
				}
			}
		}
	}
}

func assertSameParse(t *testing.T, name string, got []*Rule, gotErrs []error, want []*Rule, wantErrs []error) {
	t.Helper()
	if len(got) != len(want) || len(gotErrs) != len(wantErrs) {
		t.Fatalf("%s: %d rules and %d errors, serial %d and %d", name, len(got), len(gotErrs), len(want), len(wantErrs))
	}
	for i, r := range got {
		w := want[i]
		if r.Raw != w.Raw || r.Kind != w.Kind || r.Pattern != w.Pattern || !slices.Equal(r.Domains(), w.Domains()) {
			t.Fatalf("%s: rule %d is %q (%v %q %v), serial %q (%v %q %v)", name, i,
				r.Raw, r.Kind, r.Pattern, r.Domains(), w.Raw, w.Kind, w.Pattern, w.Domains())
		}
	}
	for i, err := range gotErrs {
		if err.Error() != wantErrs[i].Error() {
			t.Fatalf("%s: error %d is %v, serial %v", name, i, err, wantErrs[i])
		}
	}
}

// TestChunkedParseAllocs: cutting a deployed list's size into one chunk per
// core costs a few allocations per chunk over the serial figure, never some
// per line.
func TestChunkedParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	lines, _ := easyShaped(1, 70_000, 0)
	body := strings.Join(lines, "\n")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	serial := parseMallocs(body)
	for _, procs := range []int{2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		if got := parseMallocs(body); got > serial+uint64(4*procs) {
			t.Errorf("GOMAXPROCS %d: ParseList of %d lines allocates %d times, %d at GOMAXPROCS 1", procs, len(lines), got, serial)
		}
	}
}

// parseMallocs is the fewest heap allocations one ParseList(body) made over
// a few runs. (testing.AllocsPerRun would pin GOMAXPROCS to 1.)
func parseMallocs(body string) uint64 {
	var fewest uint64
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ParseList(body)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; run == 0 || n < fewest {
			fewest = n
		}
	}
	return fewest
}
