// Command adwars-compact converts a lists snapshot of the previous schema
// into the current one. adwars-serve and every other loader read the current
// schema only; this tool reads the one before it (6) as well, flat or tiered,
// because all it takes from a file is the rule text — it verifies the seal,
// compiles the rules afresh and writes the current schema: each list's rules
// and its one automaton. A file of the current schema goes through its own
// loader and is compiled afresh too. A file two or more schemas old converts
// through the release whose tool still reads it.
//
// Usage:
//
//	adwars-compact -lists old.json -out lists.json [-label L]
//
// -label overrides the output snapshot's label (default: the input's).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"adwars/internal/abp"
	"adwars/internal/artifact"
)

func main() {
	listsPath := flag.String("lists", "", "input lists snapshot (schema 6 or 7)")
	out := flag.String("out", "", "output path for the snapshot")
	label := flag.String("label", "", "override the output snapshot label (default: the input's)")
	flag.Parse()
	if *listsPath == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "adwars-compact: -lists and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*listsPath, *out, *label); err != nil {
		log.Fatalf("adwars-compact: %v", err)
	}
}

// run reads the lists, compiles them afresh and writes the result, printing
// how each list's HTTP rules reach a probe.
func run(listsPath, out, label string) error {
	snap, schema, err := readLists(listsPath)
	if err != nil {
		return fmt.Errorf("lists snapshot: %w", err)
	}
	fmt.Printf("adwars-compact: schema %d -> %d: %d lists, %d rules\n",
		schema, abp.ListsSnapshotVersion, len(snap.Lists), snap.Rules())
	for _, l := range snap.Lists {
		st := l.TierStats()
		fmt.Printf("  %-24s automaton %7d bytes   by keyword %d (%d guarded), page domain %d, generic %d\n",
			l.Name, len(l.AutomatonBytes()), st.KeywordRules, st.GuardedRules, st.DomainRules, st.GenericRules)
	}
	if label != "" {
		snap.Label = label
	}
	if err := abp.SaveListsSnapshot(out, snap); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	fmt.Printf("adwars-compact: wrote snapshot %s (label %q)\n", out, snap.Label)
	return nil
}

// readLists is the one reader of an older snapshot schema in the tree, and
// it reads only the schema before the current one. All it takes from that
// is the rule text: the seal is verified, the automaton sections are ignored
// and the lines are parsed, every one of them a rule. Schema 6 keeps names
// and counts in the JSON document and the lines in rules.<i> sections,
// newline-terminated, as the current one does. The current schema is read by
// its own loader, every check made. Either way the lists are compiled from
// the rule text as adwars-lists compiled them.
func readLists(path string) (snap *abp.ListsSnapshot, schema int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	primary, sections, _, err := artifact.OpenSections(data)
	if err != nil {
		return nil, 0, err
	}
	// Lists waits for the version: the current schema's loader reads it.
	var doc struct {
		Format  string          `json:"format"`
		Version int             `json:"version"`
		Label   string          `json:"label"`
		Lists   json.RawMessage `json:"lists"`
	}
	if err := json.Unmarshal(primary, &doc); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", abp.ErrSnapshotFormat, err)
	}
	if doc.Format != abp.ListsSnapshotFormat {
		return nil, 0, fmt.Errorf("%w: format %q", abp.ErrSnapshotFormat, doc.Format)
	}
	if doc.Version < abp.ListsSnapshotVersion-1 || doc.Version > abp.ListsSnapshotVersion {
		return nil, 0, fmt.Errorf("%w: version %d (this tool reads %d and %d)",
			abp.ErrSnapshotVersion, doc.Version, abp.ListsSnapshotVersion-1, abp.ListsSnapshotVersion)
	}
	snap = &abp.ListsSnapshot{Label: doc.Label}
	if doc.Version == abp.ListsSnapshotVersion {
		loaded, err := abp.ParseListsSnapshot(data)
		if err != nil {
			return nil, 0, err
		}
		for _, l := range loaded.Lists {
			snap.Lists = append(snap.Lists, abp.NewList(l.Name, l.Rules()))
		}
		return snap, doc.Version, nil
	}
	var lists []struct {
		Name  string          `json:"name"`
		Rules json.RawMessage `json:"rules"`
	}
	if err := json.Unmarshal(doc.Lists, &lists); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", abp.ErrSnapshotFormat, err)
	}
	for i, lj := range lists {
		rules, err := sectionRules(sections, "rules."+strconv.Itoa(i), lj.Rules)
		if err != nil {
			return nil, 0, fmt.Errorf("list %q: %w", lj.Name, err)
		}
		snap.Lists = append(snap.Lists, abp.NewList(lj.Name, rules))
	}
	return snap, doc.Version, nil
}

// sectionRules parses the named rules section of a schema-6 file, which
// holds as many lines as the header counts, under the loader's own rule.
func sectionRules(sections []artifact.Section, name string, count json.RawMessage) ([]*abp.Rule, error) {
	var want int
	if err := json.Unmarshal(count, &want); err != nil {
		return nil, fmt.Errorf("%w: %v", abp.ErrSnapshotFormat, err)
	}
	for _, sec := range sections {
		if sec.Name == name {
			return abp.ParseRulesSection(sec.Data, want)
		}
	}
	return nil, artifact.Corruptf("section-malformed", "no %s section", name)
}
