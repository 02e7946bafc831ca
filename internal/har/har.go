// Package har implements the HTTP Archive (HAR) 1.2 format the crawler
// stores request/response logs in, mirroring the paper's Firebug+NetExport
// pipeline. Only the fields the measurement consumes are modeled; encoding
// is standard JSON so the archives are interoperable.
package har

import (
	"encoding/json"
	"fmt"
	"time"

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

// Marshal encodes the log as HAR JSON (the {"log": …} envelope).
func Marshal(l *Log) ([]byte, error) {
	return json.Marshal(struct {
		Log *Log `json:"log"`
	}{l})
}

// Unmarshal decodes HAR JSON produced by Marshal (or any HAR 1.2 file
// restricted to the modeled fields).
func Unmarshal(data []byte) (*Log, error) {
	var wrapper struct {
		Log *Log `json:"log"`
	}
	if err := json.Unmarshal(data, &wrapper); err != nil {
		return nil, fmt.Errorf("har: %w", err)
	}
	if wrapper.Log == nil {
		return nil, fmt.Errorf("har: missing log envelope")
	}
	return wrapper.Log, nil
}

// Size returns the serialized size in bytes; the crawler uses it to detect
// partial snapshots (the paper discards HARs under 10% of a site's average
// yearly HAR size).
func (l *Log) Size() int {
	b, err := Marshal(l)
	if err != nil {
		return 0
	}
	return len(b)
}
