package abp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"

	"adwars/internal/artifact"
)

// List snapshots freeze a set of compiled filter lists for the serving
// layer: adwars-lists -save-snapshot and adwars-compact write them,
// adwars-serve loads them and answers /v1/match from the result. There is one
// schema. A snapshot is a small JSON header — format, version, label and, per
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
// carried a second automaton section, over a hot subset, beside the whole one;
// adwars-compact -lists OLD -out NEW converts a schema-6 file, flat or
// tiered, and a file two or more schemas old converts first through an
// earlier release's adwars-compact.

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
// rule whose Raw
// holds a newline or a NUL (no parsed line does; a hand-built rule can) is an
// error: the loader would read back different rules, or none.
func MarshalListsSnapshot(s *ListsSnapshot) ([]byte, error) {
	headers := make([]listHeader, len(s.Lists))
	sections := make([]artifact.Section, 0, 2*len(s.Lists))
	for i, l := range s.Lists {
		size := 0
		for _, r := range l.rules {
			size += len(r.Raw) + 1
		}
		text := make([]byte, 0, size)
		for _, r := range l.rules {
			text = append(append(text, r.Raw...), '\n')
		}
		if bytes.Count(text, []byte{'\n'}) != len(l.rules) || bytes.IndexByte(text, 0) >= 0 {
			return nil, fmt.Errorf("abp: snapshot list %q: a rule line holds a newline or a NUL byte", l.Name)
		}
		headers[i] = listHeader{Name: l.Name, Rules: len(l.rules)}
		sections = append(sections,
			artifact.Section{Name: sectionName(rulesSection, i), Data: text, CRC: l.rulesCRC},
			artifact.Section{Name: sectionName(automatonSection, i), Data: l.AutomatonBytes()})
	}
	lists, err := json.Marshal(headers)
	if err != nil {
		return nil, err
	}
	primary, err := json.Marshal(snapshotHeader{
		Format:  ListsSnapshotFormat,
		Version: ListsSnapshotVersion,
		Label:   s.Label,
		Lists:   lists,
	})
	if err != nil {
		return nil, err
	}
	return artifact.SealSections(append(primary, '\n'), sections), nil
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
	var doc snapshotHeader
	if err := json.Unmarshal(primary, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if doc.Format != ListsSnapshotFormat {
		return nil, fmt.Errorf("%w: format %q", ErrSnapshotFormat, doc.Format)
	}
	if doc.Version != ListsSnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads %d; a schema-%d file converts with adwars-compact -lists OLD -out NEW, an older one first through an earlier release's adwars-compact)",
			ErrSnapshotVersion, doc.Version, ListsSnapshotVersion, ListsSnapshotVersion-1)
	}
	var headers []listHeader
	if err := json.Unmarshal(doc.Lists, &headers); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
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
		rules, err := ParseRulesSection(text.Data, h.Rules)
		if err != nil {
			return nil, fmt.Errorf("abp: snapshot list %q: %w", h.Name, err)
		}
		// text.CRC is artifact.Checksum of the rule lines, verified against
		// these very bytes a moment ago — which is rulesChecksum of the rules
		// just parsed from them, line for line.
		l, err := NewListAttached(h.Name, rules, text.CRC, region.Data)
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

func sectionMalformed(format string, args ...any) error {
	return artifact.Corruptf("section-malformed", format, args...)
}

// ParseRulesSection reads one rules section under the strict line rule
// (see the comment at the top of the file): want lines, every one of them a
// rule. The rules alias text. A section that is not want newline-terminated
// lines of text is section-malformed; a line that is no rule is that line's
// parse error. The loader reads every list through it, and adwars-compact the
// rules sections of an older schema that kept them the same way.
func ParseRulesSection(text []byte, want int) ([]*Rule, error) {
	if bytes.IndexByte(text, 0) >= 0 {
		return nil, sectionMalformed("rules section holds a NUL byte")
	}
	if len(text) > 0 && text[len(text)-1] != '\n' {
		return nil, sectionMalformed("rules section does not end in a newline")
	}
	var chunks []lineChunk
	lines := 0
	if len(text) > 0 {
		chunks, lines = cutLines(textView(text[:len(text)-1]))
	}
	if lines != want {
		return nil, sectionMalformed("rules section holds %d lines, header says %d rules", lines, want)
	}
	if lines == 0 {
		return nil, nil
	}
	rules, errs := parseLines(chunks, lines, true)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return rules, nil
}

// SaveListsSnapshot writes the snapshot to path atomically (temp file +
// rename) so hot-reloading readers never observe a torn file.
func SaveListsSnapshot(path string, s *ListsSnapshot) error {
	data, err := MarshalListsSnapshot(s)
	if err != nil {
		return err
	}
	return artifact.WriteFileAtomic(path, data, 0o644)
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
