// Command adwars-compact closes the usage→compaction loop: it reads the
// per-rule hit telemetry a serving instance accumulated (the /admin/usage
// dump) plus the lists snapshot that instance serves, and emits a tiered
// snapshot — each list's whole automaton, as the flat snapshot has it, and
// beside it a small hot automaton over the rules that actually fired, which
// is what a replica scans instead under a brownout. Full verdicts are
// byte-identical to the untiered list's (they come from the same automaton);
// the hot working set typically shrinks by the dead-rule fraction, which the
// paper's lists put at well over half.
//
// Usage:
//
//	adwars-compact -lists lists.json -usage usage.json -out tiered.json
//	adwars-compact -lists lists.json -usage http://127.0.0.1:8080/admin/usage -out tiered.json
//	adwars-compact -lists old.json -out lists.json
//
// -usage accepts a file path or an http(s) URL; the URL form reads the
// live /admin/usage endpoint of a running adwars-serve, so compacting
// against current production traffic is one command. -min-hits raises the
// hot-tier bar: a rule needs at least that many recorded verdicts to stay
// hot (default 1 — any rule that ever fired). Lists present in the
// snapshot but absent from the usage dump compact with nothing kept hot
// (usage says nothing fired), with a warning. -label overrides the output
// snapshot's label.
//
// Without -usage nothing is tiered: the lists are written back flat. That
// is the format converter. adwars-serve and every other loader read the
// current snapshot schema only; this tool reads the one before it (5) as
// well, because all it takes from a file is the rule text — it verifies the
// seal, compiles the rules afresh and writes the current schema, whichever
// mode it runs in. A file two or more schemas old converts through the
// release whose tool still reads it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"

	"adwars/internal/abp"
	"adwars/internal/artifact"
	"adwars/internal/serve"
)

func main() {
	listsPath := flag.String("lists", "", "input lists snapshot (schema 5 or 6)")
	usagePath := flag.String("usage", "", "usage dump: /admin/usage JSON file or http(s) URL; omit to convert -lists to the current schema, flat")
	out := flag.String("out", "", "output path for the snapshot")
	minHits := flag.Uint64("min-hits", 1, "minimum recorded hits for a rule to stay in the hot tier")
	label := flag.String("label", "", "override the output snapshot label (default: input label, + \" [tiered]\" with -usage)")
	flag.Parse()
	if *listsPath == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "adwars-compact: -lists and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*listsPath, *usagePath, *out, *minHits, *label); err != nil {
		log.Fatalf("adwars-compact: %v", err)
	}
}

// run reads the lists, tiers them by the usage dump when there is one, and
// writes the result.
func run(listsPath, usagePath, out string, minHits uint64, label string) error {
	snap, schema, err := readLists(listsPath)
	if err != nil {
		return fmt.Errorf("lists snapshot: %w", err)
	}
	if usagePath == "" {
		fmt.Printf("adwars-compact: schema %d -> %d, flat: %d lists, %d rules\n",
			schema, abp.ListsSnapshotVersion, len(snap.Lists), snap.Rules())
	} else {
		dump, err := readUsage(usagePath)
		if err != nil {
			return fmt.Errorf("usage dump: %w", err)
		}
		snap.Label += " [tiered]"
		tier(snap, dump, minHits)
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
// and the lines are parsed, every one of them a rule. Schema 5 keeps names
// and counts in the JSON document and the lines in rules.<i> sections,
// newline-terminated, as the current one does. The current schema is read by
// its own loader, every check made. Either way the lists are compiled from
// the rule text as adwars-lists compiled them, so what is written is flat
// until tier says otherwise.
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

// sectionRules parses the named rules section of a schema-5 file, which
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

// tier replaces every list of snap with its tiered compile: the rules the
// dump saw fire at least minHits times are kept hot.
func tier(snap *abp.ListsSnapshot, dump *serve.UsageDump, minHits uint64) {
	hits := make(map[string]map[int]uint64, len(dump.Lists))
	for _, ul := range dump.Lists {
		m := make(map[int]uint64, len(ul.Hits))
		for _, pair := range ul.Hits {
			m[int(pair[0])] = pair[1]
		}
		hits[ul.List] = m
	}
	fmt.Printf("adwars-compact: %d lists, %d rules, %d recorded hits (min-hits %d)\n",
		len(snap.Lists), snap.Rules(), dump.TotalHits, minHits)
	for i, l := range snap.Lists {
		u, ok := hits[l.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "adwars-compact: warning: list %q has no usage entry; nothing kept hot\n", l.Name)
		}
		ct := l.CompileTiered(func(ord int) bool { return u[ord] >= minHits })
		snap.Lists[i] = ct
		st := ct.TierStats()
		fmt.Printf("  %-24s hot %5d rules %7d bytes / whole %7d bytes   (%d rules not hot, hot set %4.1f%%)   by keyword %d (%d guarded), page domain %d, generic %d\n",
			l.Name, st.HotRules, st.HotBytes, st.ColdBytes, st.ColdRules,
			100*float64(st.HotBytes)/float64(st.ColdBytes), st.KeywordRules, st.GuardedRules, st.DomainRules, st.GenericRules)
	}
}

// readUsage loads a /admin/usage dump from a file or straight off a
// running server.
func readUsage(src string) (*serve.UsageDump, error) {
	var data []byte
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", src, resp.StatusCode)
		}
		if data, err = io.ReadAll(resp.Body); err != nil {
			return nil, err
		}
	} else {
		var err error
		data, err = os.ReadFile(src)
		if err != nil {
			return nil, err
		}
	}
	var dump serve.UsageDump
	if err := json.Unmarshal(data, &dump); err != nil {
		return nil, err
	}
	return &dump, nil
}
