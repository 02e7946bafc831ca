package abp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The oracle for the automaton build: the sibling-list trie the sorted
// breadth-first build replaced — each keyword inserted by walking the sibling
// lists from the root, a BFS queue for the fail links, placement reading each
// node's children off its list, and each output list gathered down the fail
// chain — kept here so that TestTrieEdgesDifferential can hold the two to the
// same bytes.

// acTrieNode is a node of the oracle's trie. A node's children form a list
// through sibling, kept in ascending symbol order; index 0 is the root and,
// since the root is nobody's child or sibling, doubles as "none".
type acTrieNode struct {
	child   int32
	sibling int32
	fail    int32
	sym     uint8 // scan class 1..37 of the edge into this node
}

type plainTrie []acTrieNode

// step returns n's child along symbol c, or 0.
func (t plainTrie) step(n int32, c uint8) int32 {
	ch := t[n].child
	for ch != 0 && t[ch].sym < c {
		ch = t[ch].sibling
	}
	if ch != 0 && t[ch].sym == c {
		return ch
	}
	return 0
}

// insert adds the keyword's path and returns its final node.
func (t *plainTrie) insert(kw string) int32 {
	nodes := *t
	cur := int32(0)
	for i := 0; i < len(kw); i++ {
		c := acClass[kw[i]]
		prev, ch := int32(0), nodes[cur].child
		for ch != 0 && nodes[ch].sym < c {
			prev, ch = ch, nodes[ch].sibling
		}
		if ch == 0 || nodes[ch].sym != c {
			nodes = append(nodes, acTrieNode{sibling: ch, sym: c})
			ch = int32(len(nodes) - 1)
			if prev == 0 {
				nodes[cur].child = ch
			} else {
				nodes[prev].sibling = ch
			}
		}
		cur = ch
	}
	*t = nodes
	return cur
}

// buildAutomatonPlain is buildAutomaton as commit 6ddcbf9 had it: every
// edge found by walking a sibling list, the trie and the used table grown
// by append, the arrays filled in a scratch slice and encoded into the
// region afterwards.
func buildAutomatonPlain(rules []*Rule, kws []kwSpan, rulesCRC uint64, member []bool) *automaton {
	// Trie construction. ends[i] is the node the i-th keyworded rule's
	// path stops at; ords[i] is that rule's ordinal.
	trie := plainTrie{{}}
	var ords, generic []uint32
	var ends []int32
	for ord, r := range rules {
		if !r.IsHTTP() || kws[ord].byDomain() || member != nil && !member[ord] {
			continue
		}
		if kws[ord].none() {
			generic = append(generic, uint32(ord))
			continue
		}
		ords = append(ords, uint32(ord))
		ends = append(ends, trie.insert(r.Pattern[kws[ord].lo:kws[ord].hi]))
	}

	// own[ownIdx[n]:ownIdx[n+1]] are the ordinals of the rules whose
	// keyword ends at node n, ascending (a counting sort of ords by ends).
	ownIdx := make([]uint32, len(trie)+1)
	for _, n := range ends {
		ownIdx[n+1]++
	}
	for n := range trie {
		ownIdx[n+1] += ownIdx[n]
	}
	own := make([]uint32, len(ords))
	fill := append([]uint32(nil), ownIdx[:len(trie)]...)
	for i, n := range ends {
		own[fill[n]] = ords[i]
		fill[n]++
	}

	// BFS: fail links, and nout[n], the size of n's output list once the
	// lists down its fail chain are merged in (so the scan never walks
	// fail links to collect outputs).
	order := make([]int32, 1, len(trie))
	nout := make([]uint32, len(trie))
	totalOut := 0
	for qi := 0; qi < len(order); qi++ {
		n := order[qi]
		for ch := trie[n].child; ch != 0; ch = trie[ch].sibling {
			if n != 0 {
				c := trie[ch].sym
				f := trie[n].fail
				t := trie.step(f, c)
				for t == 0 && f != 0 {
					f = trie[f].fail
					t = trie.step(f, c)
				}
				trie[ch].fail = t
			}
			nout[ch] = ownIdx[ch+1] - ownIdx[ch] + nout[trie[ch].fail]
			totalOut += int(nout[ch])
			order = append(order, ch)
		}
	}

	// Double-array placement: BFS order, first-fit base search. slot[n]
	// is trie node n's slot; the root is slot 0.
	slot := make([]int32, len(trie))
	baseOf := make([]int32, len(trie))
	used := make([]bool, 1, len(trie)+acAlpha)
	used[0] = true
	minFree := 1
	for _, n := range order {
		baseOf[n], used, minFree = placeChildren(trie, n, slot, used, minFree)
	}

	// Fill the arrays, then serialize them behind the header into the
	// contiguous little-endian region.
	numSlots := len(used)
	body := make([]uint32, 3*numSlots+(numSlots+1)+totalOut+len(generic))
	base, check, fail := body[:numSlots], body[numSlots:2*numSlots], body[2*numSlots:3*numSlots]
	outIdx := body[3*numSlots : 4*numSlots+1]
	outputs := body[4*numSlots+1 : 4*numSlots+1+totalOut]
	copy(body[4*numSlots+1+totalOut:], generic)
	for i := range check {
		check[i] = acEmptySlot
	}
	check[0] = 0
	for n := range trie {
		s := slot[n]
		base[s] = uint32(baseOf[n])
		fail[s] = uint32(slot[trie[n].fail])
		outIdx[s+1] = nout[n]
		for ch := trie[n].child; ch != 0; ch = trie[ch].sibling {
			check[slot[ch]] = uint32(s)
		}
	}
	for s := 0; s < numSlots; s++ {
		outIdx[s+1] += outIdx[s]
	}
	for n := range trie {
		pos := outIdx[slot[n]]
		for f := int32(n); f != 0; f = trie[f].fail {
			pos += uint32(copy(outputs[pos:], own[ownIdx[f]:ownIdx[f+1]]))
		}
	}

	blob := alignedBytes(acHeaderSize + 4*len(body))
	copy(blob, acMagic)
	le := binary.LittleEndian
	le.PutUint32(blob[4:], acVersion)
	le.PutUint32(blob[8:], uint32(numSlots))
	le.PutUint32(blob[12:], 0) // root
	le.PutUint32(blob[16:], uint32(totalOut))
	le.PutUint32(blob[20:], uint32(len(generic)))
	le.PutUint32(blob[24:], uint32(len(rules)))
	le.PutUint64(blob[32:], rulesCRC)
	for i, v := range body {
		le.PutUint32(blob[acHeaderSize+4*i:], v)
	}

	a, err := openAutomaton(blob, len(rules), rulesCRC)
	if err != nil {
		panic(fmt.Sprintf("abp: internal: freshly built automaton failed validation: %v", err))
	}
	return a
}

// placeChildren finds the first-fit base for trie node n's children,
// claims their slots, and returns the base with the grown used table and
// the advanced lowest free slot.
func placeChildren(trie []acTrieNode, n int32, slot []int32, used []bool, minFree int) (int32, []bool, int) {
	var syms [acAlpha]int
	k := 0
	for ch := trie[n].child; ch != 0; ch = trie[ch].sibling {
		syms[k] = int(trie[ch].sym)
		k++
	}
	if k == 0 {
		return 0, used, minFree
	}
next:
	for pos := max(minFree, syms[0]); ; pos++ {
		for pos < len(used) && used[pos] {
			pos++
		}
		b := pos - syms[0]
		for _, c := range syms[1:k] {
			if s := b + c; s < len(used) && used[s] {
				continue next
			}
		}
		if grow := b + syms[k-1] + 1 - len(used); grow > 0 {
			used = append(used, make([]bool, grow)...)
		}
		ch := trie[n].child
		for _, c := range syms[:k] {
			used[b+c] = true
			slot[ch] = int32(b + c)
			ch = trie[ch].sibling
		}
		for minFree < len(used) && used[minFree] {
			minFree++
		}
		return int32(b), used, minFree
	}
}

// TestTrieEdgesDifferential: the sorted breadth-first build serializes,
// byte for byte, what the sibling-list build does — with and without the
// selection's run ids, flat and split into tiers — over keyword sets drawn
// from a four-symbol alphabet, in either case, three to seven symbols long,
// so that first and second symbols collide constantly, keywords repeat, and
// keywords begin one another (a third of the lines reuse a prefix or an
// extension of an earlier keyword); a few lines carry acUbiquitous runs, or
// nothing else. The last rounds are lists past parallelRules, whose
// selection and build are split among workers.
func TestTrieEdgesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const alphabet = "aB0%"
	for round := 0; round < 204; round++ {
		n := 1 + rng.Intn(60)
		if round >= 200 {
			n = parallelRules + rng.Intn(parallelRules)
		}
		var lines []string
		var kws []string
		for ; n > 0; n-- {
			kw := make([]byte, 3+rng.Intn(5))
			for i := range kw {
				kw[i] = alphabet[rng.Intn(len(alphabet))]
			}
			if len(kws) > 0 && rng.Intn(3) == 0 {
				old := kws[rng.Intn(len(kws))]
				if rng.Intn(2) == 0 {
					kw = []byte(old[:3+rng.Intn(len(old)-2)])
				} else {
					kw = append([]byte(old), kw[:rng.Intn(3)]...)
				}
			}
			kws = append(kws, string(kw))
			switch rng.Intn(20) {
			case 0: // filed under a run that ranks below every acUbiquitous one
				lines = append(lines, fmt.Sprintf("|https://www.%s.com/", kw))
			case 1: // nothing but acUbiquitous runs
				lines = append(lines, fmt.Sprintf("|http%s://www.net/", []string{"", "s"}[rng.Intn(2)]))
			default:
				lines = append(lines, fmt.Sprintf("/%s/x%d^", kw, rng.Intn(3)))
			}
		}
		l := buildList(t, "diff", lines...)
		kw, runs := selectKeywords(l.rules)
		hot := make([]bool, l.Len())
		cold := make([]bool, l.Len())
		for ord := range hot {
			hot[ord] = rng.Intn(2) == 0
			cold[ord] = !hot[ord]
		}
		for name, member := range map[string][]bool{"flat": nil, "hot": hot, "cold": cold} {
			want := buildAutomatonPlain(l.rules, kw, l.rulesCRC, member).Bytes()
			for _, ids := range [][]int32{runs, nil} {
				if got := buildAutomaton(l.rules, kw, ids, l.rulesCRC, member).Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("round %d, %s build (run ids %t) of %q: sorted and sibling-list builds serialize differently", round, name, ids != nil, lines)
				}
			}
		}
	}
}
