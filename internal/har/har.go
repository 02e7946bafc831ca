// Package har implements the HTTP Archive (HAR) 1.2 format the crawler
// stores request/response logs in, mirroring the paper's Firebug+NetExport
// pipeline. Only the fields the measurement consumes are modeled. Nothing
// writes a log to disk: Size counts its JSON encoding without making it.
package har

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"adwars/internal/abp"
)

// Log is the top-level HAR structure.
type Log struct {
	Version string  `json:"version"`
	Creator Creator `json:"creator"`
	Pages   []Page  `json:"pages"`
	Entries []Entry `json:"entries"`
}

// Creator identifies the producing tool.
type Creator struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

// Page is one visited page.
type Page struct {
	StartedDateTime time.Time `json:"startedDateTime"`
	ID              string    `json:"id"`
	Title           string    `json:"title"`
}

// Entry is one request/response pair.
type Entry struct {
	PageRef         string    `json:"pageref"`
	StartedDateTime time.Time `json:"startedDateTime"`
	Request         Request   `json:"request"`
	Response        Response  `json:"response"`
}

// Request is the request half of an entry.
type Request struct {
	Method string `json:"method"`
	URL    string `json:"url"`
	// ResourceType is a non-standard extension (browsers emit one too,
	// e.g. _resourceType) carrying the adblocker-relevant request type.
	ResourceType string `json:"_resourceType,omitempty"`
}

// Response is the response half of an entry.
type Response struct {
	Status  int     `json:"status"`
	Content Content `json:"content"`
}

// Content describes the response body.
type Content struct {
	Size     int    `json:"size"`
	MimeType string `json:"mimeType"`
	// Text optionally inlines the body (scripts keep it so the ML corpus
	// can be rebuilt from archives alone).
	Text string `json:"text,omitempty"`
}

// New creates an empty log for one crawl.
func New(creator string) *Log {
	return &Log{
		Version: "1.2",
		Creator: Creator{Name: creator, Version: "1.0"},
	}
}

// AddPage registers a visited page and returns its page id.
func (l *Log) AddPage(title string, started time.Time) string {
	id := fmt.Sprintf("page_%d", len(l.Pages)+1)
	l.Pages = append(l.Pages, Page{StartedDateTime: started, ID: id, Title: title})
	return id
}

// AddEntry appends a request/response record.
func (l *Log) AddEntry(pageID, url string, typ abp.RequestType, status int, body string, at time.Time) {
	l.Entries = append(l.Entries, Entry{
		PageRef:         pageID,
		StartedDateTime: at,
		Request:         Request{Method: "GET", URL: url, ResourceType: string(typ)},
		Response: Response{
			Status: status,
			Content: Content{
				Size:     len(body),
				MimeType: mimeFor(typ),
				Text:     body,
			},
		},
	})
}

func mimeFor(t abp.RequestType) string {
	switch t {
	case abp.TypeScript:
		return "application/javascript"
	case abp.TypeImage:
		return "image/png"
	case abp.TypeStylesheet:
		return "text/css"
	case abp.TypeDocument, abp.TypeSubdocument:
		return "text/html"
	default:
		return "application/octet-stream"
	}
}

// URLs returns every request URL in the log, in order. The coverage
// analysis matches these against HTTP filter rules.
func (l *Log) URLs() []string {
	out := make([]string, 0, len(l.Entries))
	for _, e := range l.Entries {
		out = append(out, e.Request.URL)
	}
	return out
}

// Size returns the length of the log's HAR JSON (the {"log": …} envelope,
// as encoding/json writes it) without encoding, or 0 where encoding fails
// (a time outside years 0–9999 or with a zone a day or more off UTC): strings
// are counted as encoding/json escapes them, times as MarshalJSON writes
// them. crawler.markPartials uses it to discard a HAR under 10% of the
// month's average size over the sites it fetched (DESIGN §6).
func (l *Log) Size() int {
	if l == nil {
		return len(`{"log":null}`)
	}
	var last time.Time
	tlen, failed := 0, false
	timeLen := func(t time.Time) int { // a crawl's log carries one time throughout
		if tlen == 0 || t != last {
			b, err := t.MarshalJSON()
			last, tlen, failed = t, len(b), failed || err != nil
		}
		return tlen
	}
	n := len(`{"log":{"version":,"creator":{"name":,"version":},"pages":,"entries":}}`) +
		stringLen(l.Version) + stringLen(l.Creator.Name) + stringLen(l.Creator.Version) +
		arrayLen(l.Pages == nil, len(l.Pages)) + arrayLen(l.Entries == nil, len(l.Entries))
	for _, p := range l.Pages {
		n += len(`{"startedDateTime":,"id":,"title":}`) + timeLen(p.StartedDateTime) +
			stringLen(p.ID) + stringLen(p.Title)
	}
	var num [20]byte
	for _, e := range l.Entries {
		n += len(`{"pageref":,"startedDateTime":,"request":{"method":,"url":},"response":{"status":,"content":{"size":,"mimeType":}}}`) +
			stringLen(e.PageRef) + timeLen(e.StartedDateTime) + stringLen(e.Request.Method) +
			stringLen(e.Request.URL) + len(strconv.AppendInt(num[:0], int64(e.Response.Status), 10)) +
			len(strconv.AppendInt(num[:0], int64(e.Response.Content.Size), 10)) + stringLen(e.Response.Content.MimeType)
		if e.Request.ResourceType != "" {
			n += len(`,"_resourceType":`) + stringLen(e.Request.ResourceType)
		}
		if e.Response.Content.Text != "" {
			n += len(`,"text":`) + stringLen(e.Response.Content.Text)
		}
	}
	if failed {
		return 0
	}
	return n
}

// arrayLen is the brackets and commas of an n-element JSON array, or null.
func arrayLen(null bool, n int) int {
	if null {
		return len("null")
	}
	return 2 + max(n-1, 0)
}

// stringLen is the length of s as encoding/json writes it, quotes included:
// invalid UTF-8 becomes \ufffd and U+2028/U+2029 are escaped.
func stringLen(s string) int {
	n := len(s) + 2
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < utf8.RuneSelf {
			n += int(escapeExtra[b])
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 || c == '\u2028' || c == '\u2029' {
			n += len(`\ufffd`) - size
		}
		i += size - 1
	}
	return n
}

// escapeExtra is what encoding/json adds to an ASCII byte: 5 for controls
// and HTML's <>& (\u00XX), 1 for \" \\ \b \f \n \r \t.
var escapeExtra = func() (t [utf8.RuneSelf]uint8) {
	for b := range t {
		if b < 0x20 || strings.IndexByte("<>&", byte(b)) >= 0 {
			t[b] = 5
		}
		if strings.IndexByte("\"\\\b\f\n\r\t", byte(b)) >= 0 {
			t[b] = 1
		}
	}
	return t
}()
