package abp

import (
	"strings"
	"testing"
)

// hiddenElementsLinear is the reference Hiding.HiddenElements is held to:
// no index and no memo, every hiding rule of the list tried in ordinal
// order with its selector parsed afresh (ParseSelector), every exception
// rule for each element it would hide, and both toggles read off the
// list's HTTP exception rules.
func hiddenElementsLinear(l *List, pageDomain string, elems []*Element) map[int]*Rule {
	c := matchCtx{q: normalized(Request{URL: "http://" + pageDomain + "/", Type: TypeDocument, PageDomain: pageDomain})}
	allOff, genericOff := false, false
	for _, r := range l.Rules() {
		if r.Kind == KindHTTPException && r.matchCtx(&c) {
			allOff = allOff || r.DisableElemHide
			genericOff = genericOff || r.DisableGenericHide
		}
	}
	hidden := map[int]*Rule{}
	if allOff {
		return hidden
	}
	page := lowerDomain(pageDomain)
	matches := func(r *Rule, e *Element) bool {
		sel, err := ParseSelector(r.Pattern)
		return err == nil && r.appliesOn(page) && sel.Match(e)
	}
	for i, e := range elems {
		for _, r := range l.Rules() {
			if r.Kind != KindElemHide || genericOff && len(r.Domains()) == 0 || !matches(r, e) {
				continue
			}
			excepted := false
			for _, x := range l.Rules() {
				excepted = excepted || x.Kind == KindElemHideException && matches(x, e)
			}
			if !excepted {
				hidden[i] = r
			}
			break
		}
	}
	return hidden
}

// fuzzElements reads one element per line, written as a selector
// ("div#id.a.b[data-x=y]"): its tag, id, classes and attributes. A line no
// selector parses from is an element with that line as its tag.
func fuzzElements(text string) []*Element {
	var elems []*Element
	for _, line := range strings.Split(text, "\n") {
		s, err := ParseSelector(line)
		if err != nil {
			elems = append(elems, &Element{Tag: line})
			continue
		}
		e := &Element{Tag: s.Tag, ID: s.ID, Classes: s.Classes}
		for _, p := range s.attrs {
			if e.Attrs == nil {
				e.Attrs = map[string]string{}
			}
			e.Attrs[p.name] = p.val
		}
		elems = append(elems, e)
	}
	return elems
}

// hidingSeeds are the lists, pages and elements of list_test.go's element
// hiding tests, with a toggle the hiding rule's own domain scope decides.
var hidingSeeds = []struct{ list, page, elems string }{
	{"smashboards.com###noticeMain\n###genericbanner\nexample.com#@##genericbanner", "smashboards.com", "div#noticeMain\ndiv#genericbanner\ndiv#content"},
	{"smashboards.com###noticeMain\n###genericbanner\nexample.com#@##genericbanner", "example.com", "div#noticeMain\ndiv#genericbanner\ndiv#content"},
	{"###genericbanner\nvideo.example###notice\n@@||video.example^$elemhide", "video.example", "div#genericbanner\ndiv#notice"},
	{"###genericbanner\nnews.example###notice\n@@||news.example^$generichide", "news.example", "div#genericbanner\ndiv#notice"},
	{"~other.example###exclusiononly\nnews.example,~a.news.example###scoped\n@@||news.example^$generichide", "news.example", "div#exclusiononly\ndiv#scoped"},
	{"##.ad\n##div.ad[data-x^=\"y\"]\nNews.Example##[class*=block]\n~sub.news.example#@#.ad", "sub.News.example.", "div.ad\ndiv.ad[data-x=yz]\np.blocker\nDIV.ad"},
}

// FuzzHiddenElements holds the element hiding index to the linear
// reference: for any list text, page domain and elements, the same
// elements hidden by the same rules. `go test` runs its seeds.
func FuzzHiddenElements(f *testing.F) {
	for _, s := range hidingSeeds {
		f.Add(s.list, s.page, s.elems)
	}
	f.Fuzz(func(t *testing.T, list, page, elemText string) {
		rules, _ := ParseList(list)
		l := NewList("fuzz", rules)
		elems := fuzzElements(elemText)
		got := NewHiding(l).HiddenElements(page, elems)
		want := hiddenElementsLinear(l, page, elems)
		if len(got) != len(want) {
			t.Fatalf("page %q: hid %d elements, the linear scan %d (%v, want %v)", page, len(got), len(want), got, want)
		}
		for i, r := range want {
			if got[i] != r {
				t.Fatalf("page %q: element %d hidden by %v, the linear scan says %v", page, i, got[i], r)
			}
		}
	})
}
