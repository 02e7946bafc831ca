package har_test

import (
	"testing"
	"time"
	"unicode/utf8"

	"adwars/internal/abp"
	"adwars/internal/har"
	"adwars/internal/simworld"
	"adwars/internal/stats"
	"adwars/internal/wayback"
)

// TestLogSizeMatchesMarshal: on every HAR a scale-40 crawl fetches, and on
// the partial (403) snapshot of each, Size is len(Marshal) exactly.
func TestLogSizeMatchesMarshal(t *testing.T) {
	w := simworld.New(simworld.Scaled(42, 40))
	domains := w.TopDomains(5000 / 40)
	cfg := wayback.DefaultConfig(42)
	cfg.Robots, cfg.Admin, cfg.Undefined = 153/40, 26/40, 54/40
	arch := wayback.New(w, domains, cfg)
	checked, partial := 0, 0
	for _, month := range stats.MonthsBetween(w.Cfg.Start, w.Cfg.End) {
		for _, d := range domains {
			ref, av := arch.Available(d, month)
			if av != wayback.Archived {
				continue
			}
			for _, r := range []wayback.SnapshotRef{ref, {Domain: ref.Domain, Timestamp: ref.Timestamp, Partial: true}} {
				snap, err := arch.Fetch(r)
				if err != nil {
					t.Fatal(err)
				}
				b, err := har.Marshal(snap.HAR)
				if err != nil {
					t.Fatal(err)
				}
				if got := snap.HAR.Size(); got != len(b) {
					t.Fatalf("%s %s partial=%v: Size = %d, len(Marshal) = %d", d, stats.MonthLabel(month), r.Partial, got, len(b))
				}
				checked++
				if r.Partial {
					partial++
				}
			}
		}
	}
	if checked == 0 || partial == 0 {
		t.Fatalf("checked %d HARs, %d partial", checked, partial)
	}
	var nilLog *har.Log
	if b, _ := har.Marshal(nilLog); nilLog.Size() != len(b) {
		t.Fatalf("nil log: Size = %d, len(Marshal) = %d", nilLog.Size(), len(b))
	}
	if b, _ := har.Marshal(&har.Log{}); (&har.Log{}).Size() != len(b) {
		t.Fatalf("empty log: Size = %d, len(Marshal) = %d", (&har.Log{}).Size(), len(b))
	}
}

// FuzzLogSize: for arbitrary strings (HTML's <>&, control bytes, invalid
// UTF-8, U+2028/2029) and times (any zone, nanoseconds, years outside
// 0–9999), Size is len(Marshal), and 0 where Marshal fails.
func FuzzLogSize(f *testing.F) {
	f.Add("http://a.com/x?a=1&b=<2>", "var s = \"\\u2028\";\n\t\x00\x1f\x7f", "T\u2028i\u2029", "text/html", int64(1433160000), int64(0), 0, true)
	f.Add("\xff\xfe", "\xe2\x80", "", "", int64(1433160000), int64(120), 3600, false)
	f.Add("u", "b", "t", "m", int64(-62167219200), int64(1), -1800, true)
	f.Add("u", "b", "t", "m", int64(253402300800), int64(999999999), 0, false)
	f.Add("u", "", "", "", int64(0), int64(0), 86400, true)
	f.Add("u", "", "", "", int64(0), int64(0), -86399, false)
	f.Fuzz(func(t *testing.T, url, body, title, mime string, sec, nsec int64, offset int, pages bool) {
		at := time.Unix(sec, nsec).In(time.FixedZone("z", offset))
		l := har.New(title)
		if pages {
			pid := l.AddPage(title, at)
			l.AddEntry(pid, url, abp.TypeScript, 200, body, at)
			l.AddEntry(pid, body, abp.RequestType(mime), -404, "", time.Unix(sec/2, 0).UTC())
		}
		l.Entries = append(l.Entries, har.Entry{Response: har.Response{Content: har.Content{MimeType: mime, Size: len(body)}}})
		b, err := har.Marshal(l)
		want := len(b)
		if err != nil {
			want = 0
		}
		if got := l.Size(); got != want {
			t.Fatalf("Size = %d, want %d (Marshal error %v, utf8 valid %v)", got, want, err, utf8.ValidString(url+body+title+mime))
		}
	})
}
