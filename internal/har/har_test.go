package har

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"adwars/internal/abp"
)

func sampleLog() *Log {
	l := New("adwars-crawler")
	t0 := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	pid := l.AddPage("http://dailynews.com/", t0)
	l.AddEntry(pid, "http://dailynews.com/", abp.TypeDocument, 200, "<html></html>", t0)
	l.AddEntry(pid, "http://pagefair.com/static/adblock_detection/js/d.min.js",
		abp.TypeScript, 200, "var x = 1;", t0.Add(time.Second))
	l.AddEntry(pid, "http://img.dailynews.com/logo.png", abp.TypeImage, 200, "PNG", t0.Add(2*time.Second))
	return l
}

// Marshal encodes the log as HAR JSON (the {"log": …} envelope): the oracle
// TestLogSizeMatchesMarshal and FuzzLogSize hold Log.Size to.
func Marshal(l *Log) ([]byte, error) {
	return json.Marshal(struct {
		Log *Log `json:"log"`
	}{l})
}

func TestMarshalRoundTrip(t *testing.T) {
	l := sampleLog()
	data, err := Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`{"log":{"version":"1.2"`, `"url":"http://pagefair.com/static/adblock_detection/js/d.min.js","_resourceType":"script"`, `"text":"var x = 1;"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("HAR JSON lacks %s:\n%s", want, data)
		}
	}
}

func TestURLs(t *testing.T) {
	l := sampleLog()
	urls := l.URLs()
	if len(urls) != 3 {
		t.Fatalf("URLs = %v", urls)
	}
	if urls[1] != "http://pagefair.com/static/adblock_detection/js/d.min.js" {
		t.Fatalf("urls[1] = %q", urls[1])
	}
}

func TestMimeFor(t *testing.T) {
	cases := map[abp.RequestType]string{
		abp.TypeScript:     "application/javascript",
		abp.TypeImage:      "image/png",
		abp.TypeStylesheet: "text/css",
		abp.TypeDocument:   "text/html",
		abp.TypeOther:      "application/octet-stream",
	}
	for typ, want := range cases {
		if got := mimeFor(typ); got != want {
			t.Errorf("mimeFor(%s) = %q, want %q", typ, got, want)
		}
	}
}

func TestSizeReflectsContent(t *testing.T) {
	small := New("c")
	big := sampleLog()
	if small.Size() >= big.Size() {
		t.Fatalf("size: small=%d big=%d", small.Size(), big.Size())
	}
	if big.Size() <= 0 {
		t.Fatal("size must be positive")
	}
}
