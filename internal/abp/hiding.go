package abp

// Hiding is the element hiding index of one list version: the selectors of
// its hiding and hiding-exception rules, parsed once, the hiding rules
// bucketed by the id their selector demands so that matching an element
// inspects only a few candidates, and the @@…$elemhide / $generichide
// exception rules that switch hiding off on a page. A List only matches
// requests; whatever hides elements (a browser visit, the replay of a
// crawled page) builds one Hiding per list version with NewHiding, where it
// builds that list, and shares it between pages. Nothing is written after
// construction, so a Hiding is safe for concurrent readers.
type Hiding struct {
	// hide and except are the list's hiding and hiding-exception rules,
	// in list order.
	hide   []hideRule
	except []hideRule

	// byID buckets hide by the id its selector demands, as ordinals into
	// hide; noID holds the ordinals of the rest. A selector with a required
	// #id can only match elements carrying exactly that id, so per element
	// only its id bucket and the id-less one are scanned.
	byID map[string][]int32
	noID []int32

	// toggles are the @@…$elemhide / $generichide exception rules, so
	// ElemHideDisabled does not rescan the whole list.
	toggles []*Rule
}

// hideRule is an element hiding rule with its parsed selector.
type hideRule struct {
	*Rule
	sel *Selector
}

// NewHiding builds the element hiding index of l. Every selector is parsed
// here, once: Parse checked each with the same grammar and kept none. A
// hiding rule whose Pattern is no selector (one built by hand) hides
// nothing.
func NewHiding(l *List) *Hiding {
	h := &Hiding{byID: map[string][]int32{}}
	for _, r := range l.rules {
		switch r.Kind {
		case KindHTTPException:
			if r.DisableElemHide || r.DisableGenericHide {
				h.toggles = append(h.toggles, r)
			}
		case KindElemHide, KindElemHideException:
			sel, err := ParseSelector(r.Pattern)
			if err != nil {
				continue
			}
			if r.Kind == KindElemHideException {
				h.except = append(h.except, hideRule{r, sel})
				continue
			}
			ord := int32(len(h.hide))
			h.hide = append(h.hide, hideRule{r, sel})
			if sel.ID != "" {
				h.byID[sel.ID] = append(h.byID[sel.ID], ord)
			} else {
				h.noID = append(h.noID, ord)
			}
		}
	}
	return h
}

// ElemHideDisabled reports whether an @@…$elemhide exception rule turns
// element hiding off for pages on the domain; genericOnly additionally
// reports $generichide (only generic hiding rules disabled).
func (h *Hiding) ElemHideDisabled(pageDomain string) (all, genericOnly bool) {
	if len(h.toggles) == 0 {
		return false, false
	}
	c := matchCtx{q: normalized(Request{URL: "http://" + pageDomain + "/", Type: TypeDocument, PageDomain: pageDomain})}
	for _, r := range h.toggles {
		if r.matchCtx(&c) {
			if r.DisableElemHide {
				all = true
			}
			if r.DisableGenericHide {
				genericOnly = true
			}
		}
	}
	return all, genericOnly
}

// HiddenElements returns, for a page on the given domain, the indexes of
// elements that element hiding rules would hide, together with the rule
// that hides each. Element-hiding exception rules unhide matching
// elements; $elemhide / $generichide exceptions disable hiding wholesale.
func (h *Hiding) HiddenElements(pageDomain string, elems []*Element) map[int]*Rule {
	allOff, genericOff := h.ElemHideDisabled(pageDomain)
	if allOff {
		return map[int]*Rule{}
	}
	pageDomain = lowerDomain(pageDomain)
	hidden := make(map[int]*Rule)
	if len(h.hide) == 0 || len(elems) == 0 {
		return hidden
	}
	// The domain scope of a hiding rule depends only on (rule, pageDomain):
	// resolve each rule's applicability at most once per call instead of
	// once per (rule, element) pair.
	applies := domainMemo{domain: pageDomain}
	for i, e := range elems {
		hideRule := h.firstMatch(e, genericOff, &applies)
		if hideRule == nil {
			continue
		}
		excepted := false
		for _, x := range h.except {
			if x.appliesOn(pageDomain) && x.sel.Match(e) {
				excepted = true
				break
			}
		}
		if !excepted {
			hidden[i] = hideRule
		}
	}
	return hidden
}

// domainMemo caches appliesOn verdicts per hiding rule ordinal for one page.
type domainMemo struct {
	domain string
	known  []int8 // 0 unknown, 1 applies, -1 does not
}

func (m *domainMemo) appliesOn(rules []hideRule, ord int32) bool {
	if m.known == nil {
		m.known = make([]int8, len(rules))
	}
	if m.known[ord] == 0 {
		m.known[ord] = -1
		if rules[ord].appliesOn(m.domain) {
			m.known[ord] = 1
		}
	}
	return m.known[ord] > 0
}

// firstMatch returns the first hiding rule (in list order) matching the
// element, honoring $generichide and domain scoping. A rule is generic when
// it names no domain to hide on — "##.ad" and "~a.com##.ad" alike, as
// Adblock Plus counts it — and $generichide skips exactly those.
func (h *Hiding) firstMatch(e *Element, genericOff bool, applies *domainMemo) *Rule {
	var withID []int32
	if e.ID != "" {
		withID = h.byID[e.ID]
	}
	// Merge the two ordinal streams in ascending order.
	i, j := 0, 0
	for i < len(withID) || j < len(h.noID) {
		var ord int32
		if j >= len(h.noID) || (i < len(withID) && withID[i] < h.noID[j]) {
			ord = withID[i]
			i++
		} else {
			ord = h.noID[j]
			j++
		}
		hr := h.hide[ord]
		if genericOff && hr.nDomains == 0 {
			continue
		}
		if applies.appliesOn(h.hide, ord) && hr.sel.Match(e) {
			return hr.Rule
		}
	}
	return nil
}
