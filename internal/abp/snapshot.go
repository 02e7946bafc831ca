package abp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"adwars/internal/artifact"
)

// List snapshots freeze a set of compiled filter lists for the serving
// layer: adwars-lists -save-snapshot writes them, adwars-serve loads them and
// answers /v1/match from the result. There is one schema. A snapshot is a small JSON header — format, version, label and, per
// list, its name and rule count — followed by framed sections
// (artifact.SealSections), all sealed under an artifact integrity trailer:
//
//	rules.<i>      list i's rules: the canonical source lines (Rule.Raw) in
//	               ordinal order, each newline-terminated
//	automaton.<i>  list i's automaton — every list has one, and only one
//
// The loader always attaches. Nothing is decoded and nothing is compiled at
// load; everything is read in place from the buffer the file was read into,
// which the caller keeps, unmodified, for as long as the lists are in use
// (adwars-serve holds it in the installed state):
//
//   - The rule section is walked line by line and every line is parsed
//     before the list exists (Parse is deterministic), under the strict line
//     rule: the section ends in a newline, holds exactly as many lines as the
//     header says and no NUL, and every line is a rule — a blank line, a
//     comment or a line that does not parse refuses the file. Rule.Raw, and
//     so the pattern, domains and selector text cut from it, alias the
//     buffer.
//   - The automaton sections are validated in place (openAutomaton,
//     List.attach) and scanned from the buffer.
//   - Every section belongs to exactly one list: a name that occurs twice,
//     or one no list claims, refuses the file.
//
// Every automaton section embeds the CRC-64 of the exact rule lines it was
// compiled from, and that text is the rules section's data, so the checksum
// the section frame carries and the loader verifies is the value the
// automaton must hold: a snapshot whose rules were edited without recompiling
// is refused as corrupt rather than matching against stale states. Files of
// an older schema are refused by version — schema 6 too, whose tiered lists
// carried a second automaton section, over a hot subset, beside the whole
// one. Nothing converts them: a snapshot is regenerated from its lists.

const (
	// ListsSnapshotFormat is the format tag every lists snapshot carries.
	ListsSnapshotFormat = "adwars-lists"
	// ListsSnapshotVersion is the one snapshot schema version this build
	// reads and writes.
	ListsSnapshotVersion = 7
)

// ErrSnapshotFormat reports a file that is not a lists snapshot at all.
var ErrSnapshotFormat = errors.New("abp: not an adwars lists snapshot")

// ErrSnapshotVersion reports a snapshot of any schema version but
// ListsSnapshotVersion.
var ErrSnapshotVersion = errors.New("abp: unsupported lists snapshot version")

// ListsSnapshot is a set of compiled filter lists frozen for serving.
type ListsSnapshot struct {
	// Label optionally identifies the snapshot's provenance (e.g. the
	// crawl date the lists were taken from). Informational only.
	Label string
	// Lists are the compiled lists, ready for concurrent matching.
	Lists []*List
	// Version is the artifact version (artifact.Version) of the file the
	// snapshot was parsed from; empty for one assembled in memory.
	Version string
}

// Rules returns the total rule count across all lists.
func (s *ListsSnapshot) Rules() int {
	n := 0
	for _, l := range s.Lists {
		n += l.Len()
	}
	return n
}

// listHeader is what the header document says of one list; the rules
// themselves are the list's rules section.
type listHeader struct {
	Name  string `json:"name"`
	Rules int    `json:"rules"`
}

// snapshotHeader is the header document. Lists stays undecoded until the
// version has been checked: where this schema has a rule count, older ones
// have the rule lines.
type snapshotHeader struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	Label   string          `json:"label,omitempty"`
	Lists   json.RawMessage `json:"lists"`
}

// MarshalListsSnapshot returns the snapshot as a sealed file: the header
// document, then per list its rules section and its automaton section. A
// rule whose Raw holds a newline or a NUL (no parsed line does; a hand-built
// rule can) is an error: the loader would read back different rules, or
// none. SaveListsSnapshot writes the same bytes, sealed straight into the
// file.
func MarshalListsSnapshot(s *ListsSnapshot) ([]byte, error) {
	primary, sections, err := listsSections(s)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := artifact.SealSections(&buf, primary, sections); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// listsSections is the snapshot as artifact.SealSections frames it: the
// header document and the sections, in order.
func listsSections(s *ListsSnapshot) (primary []byte, sections []artifact.Section, err error) {
	headers := make([]listHeader, len(s.Lists))
	sections = make([]artifact.Section, 0, 2*len(s.Lists))
	for i, l := range s.Lists {
		// The region is summed while the rule text is assembled; the text's
		// sum is the list's rulesCRC.
		var text []byte
		var regionCRC uint64
		overlapped(len(l.rules), func() { text = ruleText(l.rules) },
			func() { regionCRC = artifact.Checksum(l.AutomatonBytes()) })
		if bytes.Count(text, []byte{'\n'}) != len(l.rules) || bytes.IndexByte(text, 0) >= 0 {
			return nil, nil, fmt.Errorf("abp: snapshot list %q: a rule line holds a newline or a NUL byte", l.Name)
		}
		headers[i] = listHeader{Name: l.Name, Rules: len(l.rules)}
		sections = append(sections,
			artifact.Section{Name: sectionName(rulesSection, i), Data: text, CRC: l.rulesCRC},
			artifact.Section{Name: sectionName(automatonSection, i), Data: l.AutomatonBytes(), CRC: regionCRC})
	}
	lists, err := json.Marshal(headers)
	if err != nil {
		return nil, nil, err
	}
	primary, err = json.Marshal(snapshotHeader{
		Format:  ListsSnapshotFormat,
		Version: ListsSnapshotVersion,
		Label:   s.Label,
		Lists:   lists,
	})
	if err != nil {
		return nil, nil, err
	}
	return append(primary, '\n'), sections, nil
}

// ruleText is the rules section of a list: each rule's Raw, newline-ended.
func ruleText(rules []*Rule) []byte {
	size := 0
	for _, r := range rules {
		size += len(r.Raw) + 1
	}
	text := make([]byte, 0, size)
	for _, r := range rules {
		text = append(append(text, r.Raw...), '\n')
	}
	return text
}

// The two kinds of section; list i's are named kind + "." + i.
const (
	rulesSection     = "rules"
	automatonSection = "automaton"
)

func sectionName(kind string, i int) string { return kind + "." + strconv.Itoa(i) }

// ParseListsSnapshot parses a snapshot file held in memory, rejecting
// corrupt files — no trailer, bad checksum, torn length framing, a list
// without its rules or automaton section, a section of no list or of two, a
// rules section that breaks the strict line rule, a section that does not
// belong to its rules (errors wrap artifact.ErrCorrupt) — foreign files
// (ErrSnapshotFormat), every schema version but the current one
// (ErrSnapshotVersion) and snapshots whose rules no longer parse (they would
// silently change match decisions). The snapshot is read in place: the
// lists' rules and automata alias data, which the caller must therefore keep
// unmodified for as long as the lists, or any rule of them, are in use.
func ParseListsSnapshot(data []byte) (*ListsSnapshot, error) {
	primary, sections, version, err := artifact.OpenSections(data)
	if err != nil {
		return nil, fmt.Errorf("abp: lists snapshot: %w", err)
	}
	doc, headers, err := readHeader(primary)
	if err != nil {
		return nil, err
	}
	malformed := func(format string, args ...any) error {
		return fmt.Errorf("abp: lists snapshot: %w", sectionMalformed(format, args...))
	}
	// unclaimed holds each section until its list takes it.
	unclaimed := make(map[string]artifact.Section, len(sections))
	for _, sec := range sections {
		if _, twice := unclaimed[sec.Name]; twice {
			return nil, malformed("two sections are named %s", sec.Name)
		}
		unclaimed[sec.Name] = sec
	}
	claim := func(kind string, i int) (artifact.Section, bool) {
		name := sectionName(kind, i)
		sec, ok := unclaimed[name]
		delete(unclaimed, name)
		return sec, ok
	}
	out := &ListsSnapshot{Label: doc.Label, Version: version, Lists: make([]*List, 0, len(headers))}
	for i, h := range headers {
		text, ok := claim(rulesSection, i)
		if !ok {
			return nil, malformed("list %q has no %s section", h.Name, sectionName(rulesSection, i))
		}
		region, ok := claim(automatonSection, i)
		if !ok {
			return nil, malformed("list %q has no %s section", h.Name, sectionName(automatonSection, i))
		}
		l, err := loadList(h, text, region.Data)
		if err != nil {
			return nil, fmt.Errorf("abp: snapshot list %q: %w", h.Name, err)
		}
		out.Lists = append(out.Lists, l)
	}
	for _, sec := range sections {
		if _, left := unclaimed[sec.Name]; left {
			return nil, malformed("section %s belongs to no list", sec.Name)
		}
	}
	return out, nil
}

// readHeader decodes the header document: the snapshot's format, version
// and label, and what it says of each list.
func readHeader(primary []byte) (doc snapshotHeader, headers []listHeader, err error) {
	if err := json.Unmarshal(primary, &doc); err != nil {
		return doc, nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if doc.Format != ListsSnapshotFormat {
		return doc, nil, fmt.Errorf("%w: format %q", ErrSnapshotFormat, doc.Format)
	}
	if doc.Version != ListsSnapshotVersion {
		return doc, nil, fmt.Errorf("%w: version %d (this build reads %d only; regenerate the snapshot from its lists)",
			ErrSnapshotVersion, doc.Version, ListsSnapshotVersion)
	}
	if err := json.Unmarshal(doc.Lists, &headers); err != nil {
		return doc, nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	return doc, headers, nil
}

func sectionMalformed(format string, args ...any) error {
	return artifact.Corruptf("section-malformed", format, args...)
}

// loadList builds one list of a snapshot from its rules section and its
// automaton region. The region is opened and walked (walkRegion) while the
// rules are parsed: the walk needs the rule count and the checksum, and the
// section's line count, checked first, is the rule count. A rules section
// that breaks the strict line rule is refused for that, ahead of anything
// wrong with the region, as when the two ran one after the other.
func loadList(h listHeader, text artifact.Section, region []byte) (*List, error) {
	chunks, lines, err := cutRulesSection(text.Data, h.Rules)
	if err != nil {
		return nil, err
	}
	var rules []*Rule
	var errs []error
	var w *walked
	var walkErr error
	overlapped(lines,
		func() { rules, errs = parseLines(chunks, lines, true) },
		func() { w, walkErr = walkRegion(region, lines, text.CRC, true) })
	if len(errs) > 0 {
		return nil, errs[0]
	}
	if walkErr != nil {
		return nil, walkErr
	}
	// text.CRC is artifact.Checksum of the rule lines, verified against
	// these very bytes a moment ago — which is rulesChecksum of the rules
	// just parsed from them, line for line. Every line is a rule, so the
	// list holds them all and the walk's count was the list's.
	l := indexRules(h.Name, rules)
	l.rulesCRC = text.CRC
	if err := l.attach(w); err != nil {
		return nil, err
	}
	return l, nil
}

// cutRulesSection checks that text is want newline-terminated lines of
// text, and cuts them into chunks for parseLines.
func cutRulesSection(text []byte, want int) (chunks []lineChunk, lines int, err error) {
	if bytes.IndexByte(text, 0) >= 0 {
		return nil, 0, sectionMalformed("rules section holds a NUL byte")
	}
	if len(text) > 0 && text[len(text)-1] != '\n' {
		return nil, 0, sectionMalformed("rules section does not end in a newline")
	}
	if len(text) > 0 {
		chunks, lines = cutLines(textView(text[:len(text)-1]))
	}
	if lines != want {
		return nil, 0, sectionMalformed("rules section holds %d lines, header says %d rules", lines, want)
	}
	return chunks, lines, nil
}

// SaveListsSnapshot writes the snapshot to path atomically (temp file +
// rename) so hot-reloading readers never observe a torn file. The file is
// MarshalListsSnapshot's bytes, sealed straight into the temp file
// (artifact.WriteAtomic), so no sealed copy of it is assembled in memory; a
// snapshot that cannot be written leaves no temp file behind.
func SaveListsSnapshot(path string, s *ListsSnapshot) error {
	primary, sections, err := listsSections(s)
	if err != nil {
		return err
	}
	return artifact.WriteAtomic(path, 0o644, func(w io.Writer) error {
		return artifact.SealSections(w, primary, sections)
	})
}

// SaveListsSnapshotCompiled is SaveListsSnapshot.
//
// Deprecated: kept only because bench/match.go names it and a PR may not
// edit bench/; it goes when the benchmark calls through ROADMAP item 1a's
// seam.
func SaveListsSnapshotCompiled(path string, s *ListsSnapshot) error {
	return SaveListsSnapshot(path, s)
}

// SaveListsSnapshotTiered is SaveListsSnapshot: a list has one automaton.
//
// Deprecated: kept only because bench/match.go and bench/cycle.go name it;
// see SaveListsSnapshotCompiled.
func SaveListsSnapshotTiered(path string, s *ListsSnapshot) error {
	return SaveListsSnapshot(path, s)
}

// LoadListsSnapshot reads a snapshot from path.
func LoadListsSnapshot(path string) (*ListsSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseListsSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
