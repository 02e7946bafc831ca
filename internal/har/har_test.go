package har

import (
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

func TestMarshalRoundTrip(t *testing.T) {
	l := sampleLog()
	data, err := Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"log"`) {
		t.Fatal("missing log envelope")
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 3 || len(back.Pages) != 1 {
		t.Fatalf("round trip lost data: %d entries %d pages", len(back.Entries), len(back.Pages))
	}
	if back.Entries[1].Request.URL != l.Entries[1].Request.URL {
		t.Fatal("entry URL mismatch")
	}
	if back.Entries[1].Response.Content.Text != "var x = 1;" {
		t.Fatal("script body lost")
	}
	if back.Version != "1.2" {
		t.Fatalf("version = %q", back.Version)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Error("invalid JSON must error")
	}
	if _, err := Unmarshal([]byte(`{"notlog": {}}`)); err == nil {
		t.Error("missing envelope must error")
	}
	bogus := `{"log":{"entries":[{"request":{"url":"http://a.com/x"}},{"request":{"url":"http://b.com/y","_resourceType":"bogus"}}]}}`
	if _, err := Unmarshal([]byte(bogus)); err == nil || !strings.Contains(err.Error(), "entry 1 (http://b.com/y)") {
		t.Errorf("unknown _resourceType: err = %v, want one naming entry 1", err)
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
