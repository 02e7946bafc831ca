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
// layer: adwars-lists -save-snapshot writes one, adwars-serve loads it and
// answers /v1/match from the compiled result. Rules are stored as their
// canonical source lines (Rule.Raw) and recompiled on load — Parse is
// deterministic, so a reloaded list matches byte-identically to the one
// that was saved (asserted by the round-trip tests).
//
// Since schema version 2 every snapshot is sealed with an artifact
// integrity trailer (CRC64 + payload length): torn writes and bit rot are
// rejected at load instead of silently changing match decisions.
// Version-1 files predate the trailer and still load.
//
// Schema version 3 additionally carries each list's compiled match
// automaton as a framed binary section (artifact.AppendSection) between
// the JSON document and the trailer. A v3 loader attaches the serialized
// automaton instead of rebuilding the probe index, so load cost is
// dominated by rule parsing and bounds validation rather than index
// construction: the automaton is served zero-copy from the buffer the
// file was read into. Every automaton section embeds the CRC-64 of the
// exact rule lines it was compiled from; a snapshot whose JSON was edited
// without recompiling is refused as corrupt rather than matching against
// stale states.

const (
	// ListsSnapshotFormat is the format tag every lists snapshot carries.
	ListsSnapshotFormat = "adwars-lists"
	// ListsSnapshotVersion is the newest snapshot schema version this
	// build reads and the version MarshalListsSnapshotTiered writes.
	ListsSnapshotVersion = 4
	// listsSnapshotPlainVersion is the version MarshalListsSnapshot writes:
	// JSON only, no compiled sections.
	listsSnapshotPlainVersion = 2
	// listsSnapshotSealedVersion is the first schema version that requires
	// an integrity trailer.
	listsSnapshotSealedVersion = 2
	// listsSnapshotCompiledVersion is the first schema version that may
	// carry compiled automaton sections (and the version
	// MarshalListsSnapshotCompiled writes).
	listsSnapshotCompiledVersion = 3
	// listsSnapshotTieredVersion is the first schema version that may
	// carry hot/cold tier section pairs (see adwars-compact).
	listsSnapshotTieredVersion = 4
)

// ErrSnapshotFormat reports a file that is not a lists snapshot at all.
var ErrSnapshotFormat = errors.New("abp: not an adwars lists snapshot")

// ErrSnapshotVersion reports a snapshot written by an unknown (newer)
// schema version.
var ErrSnapshotVersion = errors.New("abp: unsupported lists snapshot version")

// ListsSnapshot is a set of compiled filter lists frozen for serving.
type ListsSnapshot struct {
	// Label optionally identifies the snapshot's provenance (e.g. the
	// crawl date the lists were taken from). Informational only.
	Label string
	// Lists are the compiled lists, ready for concurrent matching.
	Lists []*List
	// Compiled reports whether every list's automaton was attached from a
	// serialized snapshot section rather than rebuilt at load time.
	Compiled bool
	// Tiered reports whether every list carries a hot/cold tier split
	// (schema v4, produced by adwars-compact from a usage dump).
	Tiered bool
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

// MarshalListsSnapshot returns the snapshot as a plain (JSON-only,
// version 2) document, sealed with an integrity trailer. Loaders rebuild
// each list's automaton from the rules.
func MarshalListsSnapshot(s *ListsSnapshot) ([]byte, error) {
	return marshalListsSnapshot(s, listsSnapshotPlainVersion)
}

// MarshalListsSnapshotCompiled returns the snapshot as a version-3
// document: the JSON rule lists followed by one framed binary section per
// list ("automaton.<i>") holding that list's serialized match automaton,
// all sealed under the integrity trailer. Loaders attach the sections
// instead of recompiling.
func MarshalListsSnapshotCompiled(s *ListsSnapshot) ([]byte, error) {
	return marshalListsSnapshot(s, listsSnapshotCompiledVersion)
}

// MarshalListsSnapshotTiered returns the snapshot as a version-4
// document: the JSON rule lists followed by a hot/cold section pair per
// list ("automaton.hot.<i>" / "automaton.cold.<i>") holding that list's
// tier automatons, all sealed under the integrity trailer. Every list
// must be tiered (CompileTiered); loaders reattach both tiers and
// re-derive the membership invariants from the sections themselves.
func MarshalListsSnapshotTiered(s *ListsSnapshot) ([]byte, error) {
	return marshalListsSnapshot(s, listsSnapshotTieredVersion)
}

// marshalListsSnapshot assembles the sealed file of the given schema
// version: the JSON document, then the sections that version carries.
func marshalListsSnapshot(s *ListsSnapshot, version int) ([]byte, error) {
	var sections []artifact.Section
	for i, l := range s.Lists {
		switch version {
		case listsSnapshotCompiledVersion:
			sections = append(sections, artifact.Section{Name: automatonSectionName(i), Data: l.AutomatonBytes()})
		case listsSnapshotTieredVersion:
			if !l.Tiered() {
				return nil, fmt.Errorf("abp: tiered snapshot: list %q is not tiered", l.Name)
			}
			sections = append(sections,
				artifact.Section{Name: hotSectionName(i), Data: l.AutomatonBytes()},
				artifact.Section{Name: coldSectionName(i), Data: l.ColdAutomatonBytes()})
		}
	}
	primary, err := marshalListsJSON(s, version)
	if err != nil {
		return nil, err
	}
	return artifact.SealSections(primary, sections), nil
}

// automatonSectionName names list i's automaton section in a v3 snapshot.
func automatonSectionName(i int) string { return fmt.Sprintf("automaton.%d", i) }

// hotSectionName / coldSectionName name list i's tier sections in a v4
// snapshot.
func hotSectionName(i int) string  { return fmt.Sprintf("automaton.hot.%d", i) }
func coldSectionName(i int) string { return fmt.Sprintf("automaton.cold.%d", i) }

// marshalListsJSON returns the snapshot's JSON document, newline-terminated.
func marshalListsJSON(s *ListsSnapshot, version int) ([]byte, error) {
	doc := listsSnapshotJSON{
		Format:  ListsSnapshotFormat,
		Version: version,
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

// ParseListsSnapshot parses and recompiles a snapshot file held in memory,
// rejecting foreign files (ErrSnapshotFormat), unknown schema versions
// (ErrSnapshotVersion), corrupt files — bad checksum, torn length framing,
// or a sealed-version payload missing its trailer (errors wrap
// artifact.ErrCorrupt) — and snapshots whose rules no longer parse (they
// would silently change match decisions). The snapshot is decoded in place:
// the automata of a compiled snapshot alias data, which the caller must
// therefore keep unmodified for as long as the lists are in use.
func ParseListsSnapshot(data []byte) (*ListsSnapshot, error) {
	payload, sealed, version, err := artifact.OpenVersion(data)
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
	if doc.Version < 1 || doc.Version > ListsSnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (supported: 1..%d)",
			ErrSnapshotVersion, doc.Version, ListsSnapshotVersion)
	}
	if doc.Version >= listsSnapshotSealedVersion && !sealed {
		return nil, fmt.Errorf("abp: lists snapshot: %w",
			artifact.Corruptf("missing-trailer",
				"version %d snapshot has no integrity trailer (truncated?)", doc.Version))
	}
	if doc.Version < listsSnapshotCompiledVersion && len(sections) > 0 {
		return nil, fmt.Errorf("abp: lists snapshot: %w",
			artifact.Corruptf("section-malformed",
				"version %d snapshot carries %d binary sections (schema allows none)",
				doc.Version, len(sections)))
	}
	autoByName := make(map[string][]byte, len(sections))
	for _, sec := range sections {
		autoByName[sec.Name] = sec.Data
	}
	out := &ListsSnapshot{
		Label:    doc.Label,
		Version:  version,
		Compiled: len(doc.Lists) > 0,
		Tiered:   len(doc.Lists) > 0 && doc.Version >= listsSnapshotTieredVersion,
	}
	for i, lj := range doc.Lists {
		rules := make([]*Rule, 0, len(lj.Rules))
		for _, line := range lj.Rules {
			rule, err := Parse(line)
			if err != nil {
				return nil, fmt.Errorf("abp: snapshot list %q: rule %q: %w", lj.Name, line, err)
			}
			rules = append(rules, rule)
		}
		hotB, hasHot := autoByName[hotSectionName(i)]
		coldB, hasCold := autoByName[coldSectionName(i)]
		switch {
		case doc.Version >= listsSnapshotTieredVersion && hasHot && hasCold:
			l, err := NewListTiered(lj.Name, rules, hotB, coldB)
			if err != nil {
				return nil, fmt.Errorf("abp: snapshot list %q: %w", lj.Name, err)
			}
			out.Lists = append(out.Lists, l)
		case hasHot != hasCold:
			// One tier section without its pair is a producer bug or a
			// damaged file, never a legitimate layout.
			return nil, fmt.Errorf("abp: lists snapshot: %w",
				artifact.Corruptf("section-malformed",
					"list %q carries only one of its tier sections", lj.Name))
		default:
			if auto, ok := autoByName[automatonSectionName(i)]; ok {
				l, err := NewListCompiled(lj.Name, rules, auto)
				if err != nil {
					return nil, fmt.Errorf("abp: snapshot list %q: %w", lj.Name, err)
				}
				out.Lists = append(out.Lists, l)
			} else {
				// A v3+ snapshot without this list's section (e.g. written
				// by a future producer that compiles selectively) still
				// loads; the automaton is rebuilt from the rules.
				out.Lists = append(out.Lists, NewList(lj.Name, rules))
				out.Compiled = false
			}
			out.Tiered = false
		}
	}
	return out, nil
}

// SaveListsSnapshot writes the snapshot to path atomically (temp file +
// rename) so hot-reloading readers never observe a torn file.
func SaveListsSnapshot(path string, s *ListsSnapshot) error {
	return saveListsSnapshot(path, s, listsSnapshotPlainVersion)
}

// SaveListsSnapshotCompiled is SaveListsSnapshot in the version-3 compiled
// format (automaton sections included).
func SaveListsSnapshotCompiled(path string, s *ListsSnapshot) error {
	return saveListsSnapshot(path, s, listsSnapshotCompiledVersion)
}

// SaveListsSnapshotTiered is SaveListsSnapshot in the version-4 tiered
// format (hot/cold section pairs; every list must be tiered).
func SaveListsSnapshotTiered(path string, s *ListsSnapshot) error {
	return saveListsSnapshot(path, s, listsSnapshotTieredVersion)
}

func saveListsSnapshot(path string, s *ListsSnapshot, version int) error {
	data, err := marshalListsSnapshot(s, version)
	if err != nil {
		return err
	}
	return artifact.WriteFileAtomic(path, data, 0o644)
}

// LoadListsSnapshot reads and recompiles a snapshot from path.
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
