package abp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"adwars/internal/artifact"
)

// List snapshots freeze a set of compiled filter lists for the serving
// layer: adwars-lists -save-snapshot and adwars-compact write them,
// adwars-serve loads them and answers /v1/match from the result. There is one
// schema. A snapshot is a JSON document holding each list's rules as their
// canonical source lines (Rule.Raw), then each list's compiled match
// automata as framed binary sections (artifact.AppendSection), all sealed
// under an artifact integrity trailer:
//
//	automaton.hot.<i>   list i's automaton — every list has one
//	automaton.cold.<i>  list i's cold tier — exactly when the list is tiered
//
// A flat list is a tiered list whose cold tier is empty, so the writer
// decides the sections from the lists it is given and the loader always
// attaches: rules are re-parsed (Parse is deterministic) and the sections are
// validated in place and served zero-copy from the buffer the file was read
// into — nothing is compiled at load. Every automaton section embeds the
// CRC-64 of the exact rule lines it was compiled from; a snapshot whose JSON
// was edited without recompiling is refused as corrupt rather than matching
// against stale states. Files of an older schema are refused by version;
// adwars-compact -lists OLD -out NEW (without -usage) converts them.

const (
	// ListsSnapshotFormat is the format tag every lists snapshot carries.
	ListsSnapshotFormat = "adwars-lists"
	// ListsSnapshotVersion is the one snapshot schema version this build
	// reads and writes.
	ListsSnapshotVersion = 4
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

// Tiered reports whether every list carries a hot/cold tier split (as
// adwars-compact produces from a usage dump).
func (s *ListsSnapshot) Tiered() bool {
	for _, l := range s.Lists {
		if !l.Tiered() {
			return false
		}
	}
	return len(s.Lists) > 0
}

// Rules returns the total rule count across all lists.
func (s *ListsSnapshot) Rules() int {
	n := 0
	for _, l := range s.Lists {
		n += l.Len()
	}
	return n
}

type listJSON struct {
	Name  string   `json:"name"`
	Rules []string `json:"rules"`
}

type listsSnapshotJSON struct {
	Format  string     `json:"format"`
	Version int        `json:"version"`
	Label   string     `json:"label,omitempty"`
	Lists   []listJSON `json:"lists"`
}

// MarshalListsSnapshot returns the snapshot as a sealed file: the JSON rule
// lists, then per list its automaton.hot section and, when the list is
// tiered, its automaton.cold section.
func MarshalListsSnapshot(s *ListsSnapshot) ([]byte, error) {
	sections := make([]artifact.Section, 0, 2*len(s.Lists))
	for i, l := range s.Lists {
		sections = append(sections, artifact.Section{Name: hotSectionName(i), Data: l.AutomatonBytes()})
		if l.Tiered() {
			sections = append(sections, artifact.Section{Name: coldSectionName(i), Data: l.ColdAutomatonBytes()})
		}
	}
	primary, err := marshalListsJSON(s)
	if err != nil {
		return nil, err
	}
	return artifact.SealSections(primary, sections), nil
}

// hotSectionName / coldSectionName name list i's automaton sections.
func hotSectionName(i int) string  { return fmt.Sprintf("automaton.hot.%d", i) }
func coldSectionName(i int) string { return fmt.Sprintf("automaton.cold.%d", i) }

// marshalListsJSON returns the snapshot's JSON document, newline-terminated.
func marshalListsJSON(s *ListsSnapshot) ([]byte, error) {
	doc := listsSnapshotJSON{
		Format:  ListsSnapshotFormat,
		Version: ListsSnapshotVersion,
		Label:   s.Label,
	}
	size := 0
	for _, l := range s.Lists {
		lj := listJSON{Name: l.Name, Rules: make([]string, 0, l.Len())}
		for _, r := range l.Rules() {
			lj.Rules = append(lj.Rules, r.Raw)
			size += len(r.Raw) + 3
		}
		doc.Lists = append(doc.Lists, lj)
	}
	// Encode is Marshal plus the newline, written once into a buffer sized
	// from the rule text.
	var buf bytes.Buffer
	buf.Grow(size + size/16 + 256)
	if err := json.NewEncoder(&buf).Encode(&doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ParseListsSnapshot parses a snapshot file held in memory, rejecting
// corrupt files — no trailer, bad checksum, torn length framing, a list
// without its automaton section, a section that does not belong to its
// rules (errors wrap artifact.ErrCorrupt) — foreign files
// (ErrSnapshotFormat), every schema version but the current one
// (ErrSnapshotVersion) and snapshots whose rules no longer parse (they would
// silently change match decisions). The snapshot is decoded in place: the
// lists' automata alias data, which the caller must therefore keep
// unmodified for as long as the lists are in use.
func ParseListsSnapshot(data []byte) (*ListsSnapshot, error) {
	payload, version, err := artifact.OpenVersion(data)
	if err != nil {
		return nil, fmt.Errorf("abp: lists snapshot: %w", err)
	}
	primary, sections, err := artifact.SplitSections(payload)
	if err != nil {
		return nil, fmt.Errorf("abp: lists snapshot: %w", err)
	}
	var doc listsSnapshotJSON
	if err := json.Unmarshal(primary, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if doc.Format != ListsSnapshotFormat {
		return nil, fmt.Errorf("%w: format %q", ErrSnapshotFormat, doc.Format)
	}
	if doc.Version != ListsSnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads %d; an older file converts with adwars-compact -lists OLD -out NEW)",
			ErrSnapshotVersion, doc.Version, ListsSnapshotVersion)
	}
	autoByName := make(map[string][]byte, len(sections))
	for _, sec := range sections {
		autoByName[sec.Name] = sec.Data
	}
	out := &ListsSnapshot{Label: doc.Label, Version: version}
	for i, lj := range doc.Lists {
		rules := make([]*Rule, 0, len(lj.Rules))
		for _, line := range lj.Rules {
			rule, err := Parse(line)
			if err != nil {
				return nil, fmt.Errorf("abp: snapshot list %q: rule %q: %w", lj.Name, line, err)
			}
			rules = append(rules, rule)
		}
		hot, ok := autoByName[hotSectionName(i)]
		if !ok {
			return nil, fmt.Errorf("abp: lists snapshot: %w",
				artifact.Corruptf("section-malformed",
					"list %q has no %s section", lj.Name, hotSectionName(i)))
		}
		// A cold section that is absent reads as nil here: a flat list.
		l, err := NewListAttached(lj.Name, rules, hot, autoByName[coldSectionName(i)])
		if err != nil {
			return nil, fmt.Errorf("abp: snapshot list %q: %w", lj.Name, err)
		}
		out.Lists = append(out.Lists, l)
	}
	return out, nil
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

// SaveListsSnapshotTiered is SaveListsSnapshot.
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
