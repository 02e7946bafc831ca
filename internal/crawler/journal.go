package crawler

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"adwars/internal/har"
	"adwars/internal/wayback"
	"adwars/internal/web"
)

// Journal is the crawl checkpoint: an append-only JSONL file holding one
// record per completed site-month. A crawl interrupted mid-month restarts
// from the journal instead of refetching — each OK record carries the full
// fetched artifacts (archived HTML, HAR, script bodies), i.e. exactly what
// a real crawl would have on disk after the fetch, so resumption needs no
// archive traffic for completed work.
//
// Records hold the raw per-site fetch outcome, before the month-level
// partial-snapshot rule (whose 10%-of-average cutoff needs the whole
// month); CrawlMonth re-applies that rule after restoring. Writes are
// flushed per record so a kill at any point loses at most the in-flight
// sites; a torn final line is tolerated on load. Safe for concurrent use.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	w     *bufio.Writer
	stamp string                           // world fingerprint (see Stamp)
	done  map[string]map[string]SiteResult // month key → domain → raw result
}

// OpenJournal opens (or creates) a journal file. With resume=true existing
// records are loaded and will be served to CrawlMonth; otherwise the file
// is truncated and the crawl starts clean.
func OpenJournal(path string, resume bool) (*Journal, error) {
	j := &Journal{done: map[string]map[string]SiteResult{}}
	if resume {
		if err := j.load(path); err != nil {
			return nil, err
		}
	}
	flags := os.O_CREATE | os.O_RDWR
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("crawler: open journal: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	if resume {
		// A crash can leave a torn final line; start appends on a fresh
		// line so the next record stays parseable.
		if st, err := f.Stat(); err == nil && st.Size() > 0 {
			tail := make([]byte, 1)
			if _, err := f.ReadAt(tail, st.Size()-1); err == nil && tail[0] != '\n' {
				j.w.WriteByte('\n')
			}
		}
	}
	return j, nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	ferr := j.w.Flush()
	cerr := j.f.Close()
	j.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Len is the number of journaled site-months.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, m := range j.done {
		n += len(m)
	}
	return n
}

// Completed returns the restored raw results for one month, by domain.
// The map is a snapshot copy: callers may read it freely while the journal
// keeps recording.
func (j *Journal) Completed(month time.Time) map[string]SiteResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	m := j.done[journalMonthKey(month)]
	if m == nil {
		return nil
	}
	out := make(map[string]SiteResult, len(m))
	for d, r := range m {
		out[d] = r
	}
	return out
}

// Stamp binds the journal to a world fingerprint (seed, crawl size, …).
// A fresh journal records the fingerprint as its first line; resuming with
// a different one is refused — restored artifacts would come from a
// different world and silently corrupt the figures.
func (j *Journal) Stamp(fp string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stamp != "" {
		if j.stamp != fp {
			return fmt.Errorf("crawler: journal belongs to a different world (%q, want %q); refusing to resume", j.stamp, fp)
		}
		return nil
	}
	if j.f == nil {
		return errors.New("crawler: journal closed")
	}
	line, err := json.Marshal(journalRecord{Stamp: fp})
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("crawler: journal write: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("crawler: journal flush: %w", err)
	}
	j.stamp = fp
	return nil
}

// Record appends one completed site-month. Pending results (sites the
// cancelled crawl never finished) are not checkpointable and are skipped.
func (j *Journal) Record(month time.Time, r SiteResult) error {
	if r.Status == StatusPending {
		return nil
	}
	rec := journalRecord{
		Month:  journalMonthKey(month),
		Domain: r.Domain,
		Status: r.Status.String(),
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	if s := r.Snapshot; s != nil {
		harJSON, err := har.Marshal(s.HAR)
		if err != nil {
			return fmt.Errorf("crawler: journal %s: %w", r.Domain, err)
		}
		rec.Ref = &journalRef{
			Domain:    s.Ref.Domain,
			Timestamp: s.Ref.Timestamp,
			Partial:   s.Ref.Partial,
		}
		rec.HTML = s.HTML
		rec.HAR = harJSON
		if s.Page != nil {
			for _, sc := range s.Page.Scripts {
				rec.Scripts = append(rec.Scripts, journalScript{
					URL: sc.URL, Source: sc.Source, AntiAdblock: sc.AntiAdblock,
				})
			}
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("crawler: journal %s: %w", r.Domain, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("crawler: journal closed")
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("crawler: journal write: %w", err)
	}
	// Flush per record: a killed crawl must find every completed site.
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("crawler: journal flush: %w", err)
	}
	j.index(rec)
	return nil
}

// load reads existing records; a missing file is an empty journal and a
// torn trailing line (crash mid-write) is ignored.
func (j *Journal) load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("crawler: load journal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			var rec journalRecord
			if jerr := json.Unmarshal(line, &rec); jerr == nil {
				if rec.Stamp != "" {
					j.stamp = rec.Stamp
				} else {
					j.index(rec)
				}
			}
		}
		if err != nil {
			return nil
		}
	}
}

// index registers one record in the in-memory month→domain map.
func (j *Journal) index(rec journalRecord) {
	r, err := rec.restore()
	if err != nil {
		return
	}
	m := j.done[rec.Month]
	if m == nil {
		m = map[string]SiteResult{}
		j.done[rec.Month] = m
	}
	m[rec.Domain] = r
}

// journalRecord is the on-disk form of one site-month outcome (or, for
// the header line, the world fingerprint).
type journalRecord struct {
	Stamp   string          `json:"stamp,omitempty"`
	Month   string          `json:"month,omitempty"`
	Domain  string          `json:"domain,omitempty"`
	Status  string          `json:"status,omitempty"`
	Err     string          `json:"err,omitempty"`
	Ref     *journalRef     `json:"ref,omitempty"`
	HTML    string          `json:"html,omitempty"`
	HAR     json.RawMessage `json:"har,omitempty"`
	Scripts []journalScript `json:"scripts,omitempty"`
}

type journalRef struct {
	Domain    string    `json:"domain"`
	Timestamp time.Time `json:"timestamp"`
	Partial   bool      `json:"partial,omitempty"`
}

type journalScript struct {
	URL         string `json:"url,omitempty"`
	Source      string `json:"source"`
	AntiAdblock bool   `json:"antiAdblock,omitempty"`
}

// restore rebuilds the in-memory SiteResult, including the snapshot the
// downstream coverage analysis consumes (HTML for element hiding, HAR for
// HTTP rule matching, scripts for corpus construction).
func (rec journalRecord) restore() (SiteResult, error) {
	status, ok := statusByName[rec.Status]
	if !ok {
		return SiteResult{}, fmt.Errorf("crawler: journal: unknown status %q", rec.Status)
	}
	r := SiteResult{Domain: rec.Domain, Status: status}
	if rec.Err != "" {
		r.Err = errors.New(rec.Err)
	}
	if rec.Ref == nil {
		return r, nil
	}
	log, err := har.Unmarshal(rec.HAR)
	if err != nil {
		return SiteResult{}, fmt.Errorf("crawler: journal %s: %w", rec.Domain, err)
	}
	page := &web.Page{Domain: rec.Domain}
	for _, sc := range rec.Scripts {
		page.Scripts = append(page.Scripts, web.Script{
			URL: sc.URL, Source: sc.Source, AntiAdblock: sc.AntiAdblock,
		})
	}
	r.Snapshot = &wayback.Snapshot{
		Ref: wayback.SnapshotRef{
			Domain:    rec.Ref.Domain,
			Timestamp: rec.Ref.Timestamp,
			Partial:   rec.Ref.Partial,
		},
		HTML: rec.HTML,
		HAR:  log,
		Page: page,
	}
	return r, nil
}

// statusByName inverts Status.String for journal decoding.
var statusByName = map[string]Status{
	"pending":      StatusPending,
	"ok":           StatusOK,
	"excluded":     StatusExcluded,
	"not-archived": StatusNotArchived,
	"outdated":     StatusOutdated,
	"partial":      StatusPartial,
	"error":        StatusError,
}

// journalMonthKey renders a month as its journal key.
func journalMonthKey(t time.Time) string { return t.Format("2006-01") }
