package web

import (
	"strings"
	"testing"
	"testing/quick"

	"adwars/internal/abp"
)

func samplePage() *Page {
	p := NewPage("dailynews.com", "Daily News")
	script := NewElement("script", "")
	script.SetAttr("src", "http://cdn.dailynews.com/app.js")
	p.Head().Append(script)

	banner := NewElement("div", "noticeMain", "adblock-notice", "overlay")
	banner.SetStyle("display", "block")
	banner.Text = "Please disable your adblocker & support us"
	content := NewElement("div", "content")
	content.Text = "Today's headlines"
	img := NewElement("img", "")
	img.SetAttr("src", "http://img.dailynews.com/logo.png")
	p.Body().Append(banner, content, img)

	p.AddRequest("http://cdn.dailynews.com/app.js", abp.TypeScript)
	p.AddRequest("http://img.dailynews.com/logo.png", abp.TypeImage)
	return p
}

func TestPageSkeleton(t *testing.T) {
	p := NewPage("x.com", "X")
	if p.Head() == nil || p.Body() == nil {
		t.Fatal("skeleton must contain head and body")
	}
	if p.URL() != "http://x.com/" {
		t.Fatalf("URL = %q", p.URL())
	}
}

func TestElementFlattenAndFind(t *testing.T) {
	p := samplePage()
	elems := p.Elements()
	if len(elems) != 7 { // html, head, script, body, banner, content, img
		t.Fatalf("flatten = %d elements, want 7", len(elems))
	}
	if find(p.Root, "noticeMain") == nil {
		t.Fatal("Find(noticeMain) failed")
	}
	if find(p.Root, "absent") != nil {
		t.Fatal("Find(absent) should be nil")
	}
}

func TestToABP(t *testing.T) {
	p := samplePage()
	banner := find(p.Root, "noticeMain").ToABP()
	if banner.ID != "noticeMain" || banner.Tag != "div" {
		t.Fatalf("adapted element = %+v", banner)
	}
	if !banner.HasClass("adblock-notice") || !banner.HasClass("overlay") {
		t.Fatal("classes lost in adaptation")
	}
	if !strings.Contains(banner.Attrs["style"], "display:block") {
		t.Fatalf("style attr = %q", banner.Attrs["style"])
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	p := samplePage()
	html := RenderHTML(p)
	for _, want := range []string{
		`id="noticeMain"`, `class="adblock-notice overlay"`,
		`src="http://img.dailynews.com/logo.png"`, "<!DOCTYPE html>",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("rendered HTML missing %q", want)
		}
	}

	root := ParseHTML(html)
	if root == nil || root.Tag != "html" {
		t.Fatalf("parsed root = %+v", root)
	}
	banner := find(root, "noticeMain")
	if banner == nil {
		t.Fatal("banner lost in round trip")
	}
	if len(banner.Classes) != 2 || banner.Classes[0] != "adblock-notice" {
		t.Fatalf("banner classes = %v", banner.Classes)
	}
	if banner.Style["display"] != "block" {
		t.Fatalf("banner style = %v", banner.Style)
	}
	if !strings.Contains(banner.Text, "disable your adblocker") {
		t.Fatalf("banner text = %q", banner.Text)
	}
}

func TestParseHTMLScriptRawText(t *testing.T) {
	html := `<html><head><script>if (a < b && c > d) { detect(); }</script></head><body></body></html>`
	root := ParseHTML(html)
	var script *Element
	for _, e := range root.Flatten() {
		if e.Tag == "script" {
			script = e
		}
	}
	if script == nil {
		t.Fatal("script element missing")
	}
	if !strings.Contains(script.Text, "a < b && c > d") {
		t.Fatalf("script text = %q", script.Text)
	}
}

func TestParseHTMLTolerance(t *testing.T) {
	cases := []string{
		"",
		"no tags at all",
		"<html><body><div><p>unclosed",
		"<html></p></html>",             // stray close
		"<html><div id=>x</div></html>", // empty attr value
		"<html><br><img src=x></html>",
		"<!-- only a comment -->",
		"<html><script>never closed",
	}
	for _, src := range cases {
		// Must not panic; result may be nil.
		_ = ParseHTML(src)
	}
}

func TestParseHTMLUnquotedAttrs(t *testing.T) {
	root := ParseHTML(`<html><body><div id=bait class=x data-n=1></div></body></html>`)
	d := find(root, "bait")
	if d == nil {
		t.Fatal("unquoted id attr not parsed")
	}
	if len(d.Classes) != 1 || d.Classes[0] != "x" {
		t.Fatalf("classes = %v", d.Classes)
	}
	if d.Attrs["data-n"] != "1" {
		t.Fatalf("attrs = %v", d.Attrs)
	}
}

func TestParseHTMLEntities(t *testing.T) {
	root := ParseHTML(`<html><body><div id="q">a &amp; b &lt;tag&gt;</div></body></html>`)
	d := find(root, "q")
	if d.Text != "a & b <tag>" {
		t.Fatalf("text = %q", d.Text)
	}
}

func TestParseHTMLNeverPanics(t *testing.T) {
	f := func(src string) bool {
		_ = ParseHTML(src)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRenderDeterministic(t *testing.T) {
	p := samplePage()
	find(p.Root, "noticeMain").SetAttr("data-b", "2")
	find(p.Root, "noticeMain").SetAttr("data-a", "1")
	h1 := RenderHTML(p)
	h2 := RenderHTML(p)
	if h1 != h2 {
		t.Fatal("rendering must be deterministic")
	}
	if strings.Index(h1, "data-a") > strings.Index(h1, "data-b") {
		t.Fatal("attributes must render in sorted order")
	}
}

func TestVoidElementsNoCloseTag(t *testing.T) {
	p := NewPage("x.com", "X")
	img := NewElement("img", "")
	img.SetAttr("src", "a.png")
	p.Body().Append(img)
	html := RenderHTML(p)
	if strings.Contains(html, "</img>") {
		t.Fatal("void element rendered with close tag")
	}
}

// find returns the first element of e's tree with the given id, or nil.
func find(e *Element, id string) *Element {
	for _, el := range e.Flatten() {
		if el.ID == id {
			return el
		}
	}
	return nil
}
