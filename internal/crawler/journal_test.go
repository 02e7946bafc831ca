package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// crawlRaw crawls one month without a journal and returns the raw per-site
// results (pre-partial-rule), for comparison against restored records.
func journalTestMonth() time.Time {
	return time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC)
}

func TestJournalRoundTrip(t *testing.T) {
	a, _, domains := buildWorld(200)
	month := journalTestMonth()
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CrawlMonth(context.Background(), a, domains, month, Config{Workers: 4, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(domains) {
		t.Fatalf("journal holds %d records, want %d", j2.Len(), len(domains))
	}
	done := j2.Completed(month)
	for i, w := range want.Results {
		r, ok := done[w.Domain]
		if !ok {
			t.Fatalf("%s missing from journal", w.Domain)
		}
		// The journal stores raw pre-partial statuses; every journaled
		// partial is OK-with-snapshot on disk.
		wantStatus := w.Status
		if wantStatus == StatusPartial {
			wantStatus = StatusOK
		}
		if r.Status != wantStatus {
			t.Fatalf("%s status %v, want %v", w.Domain, r.Status, wantStatus)
		}
		if wantStatus == StatusOK {
			if r.Snapshot == nil {
				t.Fatalf("%s restored without snapshot", w.Domain)
			}
			if w.Status == StatusOK {
				if r.Snapshot.HTML != w.Snapshot.HTML {
					t.Fatalf("%s HTML mismatch", w.Domain)
				}
				// HAR must round-trip byte-identically: the partial-HAR
				// cutoff depends on Size().
				if r.Snapshot.HAR.Size() != w.Snapshot.HAR.Size() {
					t.Fatalf("%s HAR size %d != %d", w.Domain, r.Snapshot.HAR.Size(), w.Snapshot.HAR.Size())
				}
			}
		}
		_ = i
	}
	if j2.Completed(month.AddDate(0, 1, 0)) != nil {
		t.Fatal("unknown month must have no completions")
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	month := journalTestMonth()
	for _, r := range []SiteResult{
		{Domain: "a.com", Status: StatusNotArchived},
		{Domain: "b.com", Status: StatusOutdated},
		{Domain: "c.com", Status: StatusError, Err: errors.New("boom")},
	} {
		if err := j.Record(month, r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Simulate a crash mid-write: append half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"month":"2015-02","domain":"d.com","sta`)
	f.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	done := j2.Completed(month)
	if len(done) != 3 {
		t.Fatalf("restored %d records, want 3 (torn tail dropped)", len(done))
	}
	if done["c.com"].Err == nil || done["c.com"].Err.Error() != "boom" {
		t.Fatalf("error cause lost: %v", done["c.com"].Err)
	}
	// Appending after a torn-tail resume must land on a fresh line so a
	// later reload sees the new record too.
	if err := j2.Record(month, SiteResult{Domain: "e.com", Status: StatusExcluded}); err != nil {
		t.Fatal(err)
	}
	if j2.Completed(month)["e.com"].Status != StatusExcluded {
		t.Fatal("post-resume record not indexed")
	}
	j2.Close()
	j3, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := len(j3.Completed(month)); got != 4 {
		t.Fatalf("reload after torn-tail append restored %d records, want 4", got)
	}
}

func TestJournalStampRefusesForeignWorld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Stamp("seed=42 topn=100"); err != nil {
		t.Fatal(err)
	}
	// Idempotent for the same world.
	if err := j.Stamp("seed=42 topn=100"); err != nil {
		t.Fatal(err)
	}
	j.Record(journalTestMonth(), SiteResult{Domain: "a.com", Status: StatusNotArchived})
	j.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.Stamp("seed=43 topn=100"); err == nil {
		t.Fatal("resume with a different world fingerprint must be refused")
	}
	if err := j2.Stamp("seed=42 topn=100"); err != nil {
		t.Fatalf("matching fingerprint refused: %v", err)
	}
	// The header line must not leak into the results.
	if j2.Len() != 1 || j2.Completed(journalTestMonth())["a.com"].Status != StatusNotArchived {
		t.Fatalf("records corrupted by stamp header: len=%d", j2.Len())
	}
}

func TestJournalFreshOpenTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := OpenJournal(path, false)
	j.Record(journalTestMonth(), SiteResult{Domain: "a.com", Status: StatusNotArchived})
	j.Close()
	j2, err := OpenJournal(path, false) // resume=false: start clean
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 0 {
		t.Fatalf("non-resume open kept %d records", j2.Len())
	}
}

func TestJournalSkipsPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := OpenJournal(path, false)
	defer j.Close()
	if err := j.Record(journalTestMonth(), SiteResult{Domain: "a.com", Status: StatusPending}); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatal("pending results must not be journaled")
	}
}

// TestJournalCrashAtEveryByte: a crash stops the journal at any byte. Cut at
// every byte of a real crawl's journal and reopened for resume, it neither
// errors nor panics, restores exactly the site-months whose line the cut
// holds whole, each as the whole file restores it, and keeps the world
// stamp exactly when its line is whole. Resuming from such cuts renders the
// figures of a clean study: experiments' TestRetroResumeFromEveryCut.
func TestJournalCrashAtEveryByte(t *testing.T) {
	a, _, domains := buildWorld(17) // 15 excluded, 2 fetched
	month := journalTestMonth()
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Stamp("world"); err != nil {
		t.Fatal(err)
	}
	res, err := CrawlMonth(context.Background(), a, domains, month, Config{Workers: 2, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Counts[StatusOK] == 0 {
		t.Fatalf("no site fetched (%v): the journal carries no snapshot", res.Counts)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	summary := func(r SiteResult) string {
		s := fmt.Sprintf("%v %v", r.Status, r.Err)
		if r.Snapshot != nil {
			s += fmt.Sprintf(" %v %d %d %d", r.Snapshot.Ref, len(r.Snapshot.HTML), len(r.Snapshot.HAR.Entries), len(r.Snapshot.Page.Scripts))
		}
		return s
	}
	reopen := func(n int) (*Journal, map[string]string) {
		t.Helper()
		cut := filepath.Join(dir, "cut.jsonl")
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(cut, true)
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", n, len(data), err)
		}
		got := map[string]string{}
		for d, r := range j.Completed(month) {
			got[d] = summary(r)
		}
		return j, got
	}
	j, full := reopen(len(data))
	j.Close()
	if len(full) != len(domains) {
		t.Fatalf("the whole journal restores %d site-months, want %d", len(full), len(domains))
	}
	// ends[i] is the offset just past line i's closing brace; line 0 is the
	// stamp, and domains[i-1] names line i's site.
	var ends []int
	var lineDomain []string
	for off := 0; off < len(data); {
		n := bytes.IndexByte(data[off:], '\n')
		var rec journalRecord
		if err := json.Unmarshal(data[off:off+n], &rec); err != nil {
			t.Fatal(err)
		}
		ends, lineDomain = append(ends, off+n), append(lineDomain, rec.Domain)
		off += n + 1
	}
	for n := 0; n <= len(data); n++ {
		j, got := reopen(n)
		want := map[string]string{}
		for i := 1; i < len(ends) && ends[i] <= n; i++ {
			want[lineDomain[i]] = full[lineDomain[i]]
		}
		if !maps.Equal(got, want) {
			t.Fatalf("cut at %d of %d: restored %d site-months, want %d:\n got %v\nwant %v", n, len(data), len(got), len(want), got, want)
		}
		if err := j.Stamp("other world"); (err == nil) == (ends[0] <= n) {
			t.Fatalf("cut at %d of %d (stamp line ends at %d): a foreign stamp gave %v", n, len(data), ends[0], err)
		}
		j.Close()
	}
}

// TestJournalRefetchesBogusResourceType: the replay matches each HAR entry
// with its recorded type, so a journaled site-month whose HAR carries a type
// the matcher does not know is not restored; the resumed crawl fetches it
// again and journals the fresh snapshot.
func TestJournalRefetchesBogusResourceType(t *testing.T) {
	a, _, domains := buildWorld(17) // 15 excluded, 2 fetched
	month := journalTestMonth()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CrawlMonth(context.Background(), a, domains, month, Config{Workers: 2, Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	typed := []byte(`"_resourceType":"script"`)
	at := bytes.Index(data, typed)
	if at < 0 {
		t.Fatal("no journaled HAR entry carries a script type")
	}
	start := bytes.LastIndexByte(data[:at], '\n') + 1
	var rec journalRecord
	if err := json.Unmarshal(data[start:start+bytes.IndexByte(data[start:], '\n')], &rec); err != nil {
		t.Fatal(err)
	}
	bogus := slices.Concat(data[:at], []byte(`"_resourceType":"bogus"`), data[at+len(typed):])
	if err := os.WriteFile(path, bogus, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.Completed(month)[rec.Domain]; ok {
		t.Fatalf("%s restored with a bogus _resourceType", rec.Domain)
	}
	if got := len(j2.Completed(month)); got != len(domains)-1 {
		t.Fatalf("restored %d site-months, want %d", got, len(domains)-1)
	}
	res, err := CrawlMonth(context.Background(), a, domains, month, Config{Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		if r.Domain == rec.Domain && (r.Status != StatusOK || r.Snapshot == nil) {
			t.Fatalf("%s after resume: %v, want a refetched snapshot", r.Domain, r.Status)
		}
	}
	if r, ok := j2.Completed(month)[rec.Domain]; !ok || r.Snapshot == nil {
		t.Fatalf("%s: the refetched snapshot was not journaled", rec.Domain)
	}
}
