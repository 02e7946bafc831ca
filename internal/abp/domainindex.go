package abp

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
)

// domainIndex files the HTTP rules the automaton does not hold under each of
// their positive $domain= entries, sorted by domain and then ordinal. A rule
// whose $domain= condition holds on a page names the page's domain or a parent
// of it (domainWithin), so the entries under those are every rule of the index
// a request from the page can match. Most pages are named by no rule, so a
// one-hash Bloom filter over the filed domains (16 bits or more each) stands
// before the search. It is derived from the automaton at attach time, never
// serialized: a region compiled with every rule under its run leaves it empty.
type domainIndex struct {
	entries []domainEntry
	filter  []uint64 // a power of two of words; see has
	rules   int      // rules filed, each under one domain or more
}

type domainEntry struct {
	domain string
	ord    uint32
}

func newDomainIndex(rules []*Rule, filed []uint32) *domainIndex {
	x := &domainIndex{rules: len(filed)}
	for _, ord := range filed {
		for _, d := range rules[ord].Domains() {
			x.entries = append(x.entries, domainEntry{d, ord})
		}
	}
	slices.SortFunc(x.entries, func(a, b domainEntry) int {
		return cmp.Or(strings.Compare(a.domain, b.domain), cmp.Compare(a.ord, b.ord))
	})
	x.filter = make([]uint64, 1<<bits.Len(uint(len(x.entries)/4+4)))
	for _, e := range x.entries {
		h := uint32(0)
		for i := len(e.domain); i > 0; i-- {
			h = domainHash(h, e.domain[i-1])
		}
		x.filter[h>>6&uint32(len(x.filter)-1)] |= 1 << (h & 63)
	}
	return x
}

// domainHash extends the hash of a domain's tail by the byte before it
// (FNV-1a, last byte first): one backward pass over a page domain yields the
// hash of every suffix of it.
func domainHash(h uint32, b byte) uint32 { return (h ^ uint32(b)) * 16777619 }

// has reports whether a filed domain may hash to h.
func (x *domainIndex) has(h uint32) bool {
	return x.filter[h>>6&uint32(len(x.filter)-1)]>>(h&63)&1 != 0
}

// scanInto pushes the rules filed under the request's page domain and under
// every parent of it — the suffixes domainWithin accepts — into the context.
func (x *domainIndex) scanInto(c *matchCtx) {
	p, h := c.q.PageDomain, uint32(0)
	for n := len(p); n >= 0 && len(x.entries) > 0; n-- {
		if (n == 0 || p[n-1] == '.') && x.has(h) {
			i, _ := slices.BinarySearchFunc(x.entries, p[n:], func(e domainEntry, d string) int {
				return strings.Compare(e.domain, d)
			})
			for ; i < len(x.entries) && x.entries[i].domain == p[n:]; i++ {
				c.pushCand(x.entries[i].ord)
			}
		}
		if n > 0 {
			h = domainHash(h, p[n-1])
		}
	}
}
