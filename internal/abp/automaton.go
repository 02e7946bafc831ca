package abp

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"unsafe"

	"adwars/internal/artifact"
)

// This file is the compiled multi-pattern match core: an Aho–Corasick
// automaton over rule pattern substrings, laid out as a double-array trie
// in ONE contiguous little-endian []byte region. The region is the unit of
// serialization — it goes into the lists snapshot behind the artifact
// integrity trailer verbatim and is reattached on load without rebuilding,
// so startup cost for a compiled list is O(read) plus validation instead
// of O(rules) index construction.
//
// Role in matching: the automaton is the probe stage, total over byte
// strings. One scan of the raw request URL (the byte class table folds
// ASCII case, so no lower-cased copy is allocated) yields the ordinals of
// every rule whose keyword occurs in it. Those, the keyword-less generic
// rules and the rules the page-domain index (tier.go) files under the
// request's page are a superset of the rules that can match; each candidate
// is verified with the full rule matcher in insertion order, which makes
// the answers — decision, winning rule, all-matches set — identical to the
// linear reference scan (the differential tests, FuzzMatchDifferential).
//
// The probe is sound for every input, ASCII or not: keywords are runs of
// [a-z0-9%] of the pattern as the matcher compares it, A–Z folded; a rule
// matching a URL means that run occurs in the URL as the matcher sees it
// (matchCtx.low: A–Z folded, every other byte as sent); and the scan reads
// exactly that view — a byte outside the keyword alphabet, '/' and 0xC3
// alike, is class 0 and resets it to the root.
//
// Memory layout (all integers little-endian, fixed width):
//
//	off 0   magic "AWDA" (4 bytes)
//	off 4   u32 version (currently 1)
//	off 8   u32 numSlots       double-array length
//	off 12  u32 root           root state's slot (always 0)
//	off 16  u32 numOutputs     total output-list entries
//	off 20  u32 numGeneric     rules without a usable keyword
//	off 24  u32 numRules       rule count the output ordinals index
//	off 28  u32 reserved (0)
//	off 32  u64 rulesCRC       CRC-64 of the canonical rule lines
//	off 40  u64 reserved (0)   (keeps the arrays 8-byte aligned)
//	off 48  base    [numSlots]u32
//	        check   [numSlots]u32   (0xFFFFFFFF = empty slot)
//	        fail    [numSlots]u32
//	        outIdx  [numSlots+1]u32 (prefix offsets into outputs)
//	        outputs [numOutputs]u32 (rule ordinals)
//	        generic [numGeneric]u32 (rule ordinals, ascending)
//
// rulesCRC binds a serialized automaton to the exact rule set it was
// compiled from: a snapshot whose JSON rules were edited without
// recompiling the section is refused at load instead of silently matching
// against stale states.
const (
	acMagic   = "AWDA"
	acVersion = 1

	// acAlpha is the scan alphabet: class 0 is every byte that can never
	// appear in a keyword (resets the scan to the root), classes 1..37 are
	// the keyword characters a-z, 0-9, '%' (upper-case ASCII folds onto
	// the lower-case class, so the automaton scans raw URLs).
	acAlpha = 38

	// acMinKeyword is the shortest run worth automaton states: anything
	// shorter is too unselective.
	acMinKeyword = 3

	acHeaderSize = 48
	acEmptySlot  = ^uint32(0)
)

// acClass maps a URL byte to its scan symbol. Upper- and lower-case ASCII
// letters share a class, which is what lets the scan run over the raw
// request URL while rule keywords are stored lower-cased.
var acClass [256]byte

func init() {
	for c := 'a'; c <= 'z'; c++ {
		acClass[c] = byte(c-'a') + 1
		acClass[c-'a'+'A'] = byte(c-'a') + 1
	}
	for c := '0'; c <= '9'; c++ {
		acClass[c] = byte(c-'0') + 27
	}
	acClass['%'] = 37
}

// hostLittleEndian reports whether native u32 loads read the serialized
// little-endian arrays correctly, enabling the zero-copy view.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// automaton is the decoded view over one contiguous region. The u32
// slices alias blob when the host is little-endian and the region is
// 4-byte aligned (always true for the in-memory builder; snapshot
// sections are 8-aligned in the file, so a read buffer usually qualifies
// too); otherwise they are decoded copies, so matching is correct on any
// host.
type automaton struct {
	blob []byte

	base    []uint32
	check   []uint32
	fail    []uint32
	outIdx  []uint32
	outputs []uint32
	generic []uint32

	numSlots uint32
	root     uint32
	numRules uint32
	rulesCRC uint64
}

// Bytes returns the automaton's contiguous serialized region. The slice
// aliases the automaton's backing memory and must not be modified.
func (a *automaton) Bytes() []byte { return a.blob }

// nextKeywordRun returns the bounds [i, j) of the first maximal run of
// keyword characters in the pattern at or after from that is at least
// acMinKeyword long, or i < 0 when there is none. A keyword character is a
// byte with a non-zero scan class, so the pattern is read as written: the
// classes fold A–Z, and the bounds are those of the folded pattern.
func nextKeywordRun(pat string, from int) (i, j int) {
	for i = from; i < len(pat); i = j {
		for i < len(pat) && acClass[pat[i]] == 0 {
			i++
		}
		for j = i; j < len(pat) && acClass[pat[j]] != 0; j++ {
		}
		if j-i >= acMinKeyword {
			return i, j
		}
	}
	return -1, -1
}

// acUbiquitous are keyword runs nearly every URL contains. A rule indexed
// under one is a candidate for nearly every request, however few rules of
// its list spell the run, so selection ranks them after every other run.
var acUbiquitous = []string{"http", "https", "www", "com", "net", "org"}

// kwSpan says where a list files an HTTP rule: under the run of its Pattern
// at bytes [lo, hi), which the automaton finds; nowhere (the zero span: the
// always-appended generic array); or under its page domains (kwByDomain: the
// page-domain index, no automaton). The build reads a run through acClass,
// which folds A–Z, so the span of the pattern as written names the same
// keyword as the span of the folded pattern.
type kwSpan struct{ lo, hi uint32 }

// kwByDomain is no run's span (lo > hi), and has no run: none() holds.
var kwByDomain = kwSpan{lo: 1}

func (s kwSpan) none() bool     { return s.hi == 0 }
func (s kwSpan) byDomain() bool { return s == kwByDomain }

// selectKeywords files every HTTP rule of a list under the rarest thing a
// request it matches must carry; the zero span marks a rule with nothing to
// file it under (and every non-HTTP rule). First, a run of its pattern. Any
// run is a sound keyword — a contiguous literal span of the pattern, so every
// URL the rule matches contains it as a substring, which is what the scan
// detects: no token boundaries needed ("/detect123*.js" goes under
// "detect123"). The choice is therefore free, and it decides how many
// candidates a probe verifies, so it is made per list: the run fewest of the
// list's patterns spell wins (ties: the longest, then the leftmost;
// acUbiquitous runs last), and "||host123.com/js/advertisement.js" sits under
// "host123" with a handful of rules, not under "advertisement" with every
// sibling that shares the path. Second, for a rule with a positive $domain=,
// the page domain: "/ads.js$domain=a.com" shares "ads" with every path-only
// rule of the list and a.com with a handful, so a rule with no run, or whose
// most-named domain fewer rules name than spell its run, is filed under its
// domains. One selection feeds the whole and the hot build of a list.
func selectKeywords(rules []*Rule) []kwSpan {
	// First pass: each distinct run gets an id the first time it is seen,
	// and every run of every pattern, in order, leaves its id in runIDs — so
	// the second pass reads its counts by index and hashes nothing.
	ids := make(map[string]int32, len(rules))
	count := make([]int32, 0, len(rules))
	runIDs := make([]int32, 0, 2*len(rules))
	named := make(map[string]int32) // rules naming a domain in $domain=
	for _, r := range rules {
		if !r.IsHTTP() {
			continue
		}
		// The runs come from the pattern as the matcher compares it
		// (matchURLCtx), A–Z folded: a byte ≥ 0x80 never joins a run.
		pat := lowerASCII(r.Pattern)
		for i, j := nextKeywordRun(pat, 0); i >= 0; i, j = nextKeywordRun(pat, j) {
			id, seen := ids[pat[i:j]]
			if !seen {
				id = int32(len(count))
				ids[pat[i:j]] = id
				count = append(count, 0)
			}
			count[id]++
			runIDs = append(runIDs, id)
		}
		for _, d := range r.Domains() {
			named[d]++
		}
	}
	for _, run := range acUbiquitous {
		if id, ok := ids[run]; ok {
			count[id] = math.MaxInt32
		}
	}
	kws := make([]kwSpan, len(rules))
	next := 0
	for ord, r := range rules {
		if !r.IsHTTP() {
			continue
		}
		var best kwSpan
		bestN := int32(0)
		for i, j := nextKeywordRun(r.Pattern, 0); i >= 0; i, j = nextKeywordRun(r.Pattern, j) {
			n := count[runIDs[next]]
			next++
			if best.none() || n < bestN || n == bestN && uint32(j-i) > best.hi-best.lo {
				best, bestN = kwSpan{uint32(i), uint32(j)}, n
			}
		}
		most := int32(0)
		for _, d := range r.Domains() {
			most = max(most, named[d])
		}
		if most > 0 && (best.none() || most < bestN) {
			best = kwByDomain
		}
		kws[ord] = best
	}
	return kws
}

// rulesCRCTable is the table artifact.Checksum uses (crc64.MakeTable hands
// every ECMA caller the same one).
var rulesCRCTable = crc64.MakeTable(crc64.ECMA)

// rulesChecksum is the canonical CRC-64 over a compiled rule set: the raw
// lines in ordinal order, newline-terminated — artifact.Checksum of that
// text, folded in a few kilobytes at a time so the text is never assembled
// (crc64 runs several times faster over a block than over a line). It is
// stored inside the serialized automaton and re-derived at load to refuse
// stale sections.
func rulesChecksum(rules []*Rule) uint64 {
	var crc uint64
	var block [4096]byte
	n := 0
	for _, r := range rules {
		if n+len(r.Raw)+1 > len(block) {
			crc = crc64.Update(crc, rulesCRCTable, block[:n])
			n = 0
		}
		if len(r.Raw) >= len(block) {
			crc = crc64.Update(crc, rulesCRCTable, []byte(r.Raw))
		} else {
			n += copy(block[n:], r.Raw)
		}
		block[n] = '\n'
		n++
	}
	return crc64.Update(crc, rulesCRCTable, block[:n])
}

// acTrieNode is a build-time trie node: 16 bytes and no pointers, so the
// node slice is plain memory the collector never scans. A node's children
// form a list through sibling, kept in ascending symbol order; index 0 is
// the root and, since the root is nobody's child or sibling, doubles as
// "none".
type acTrieNode struct {
	child   int32
	sibling int32
	fail    int32
	sym     uint8 // scan class 1..37 of the edge into this node
}

// acTrie is the build-time trie. Every insert and most fail-link steps
// start at the root, whose sibling list — and those of its children — grows
// to the width of the alphabet, so the edges out of the root and out of
// each depth-1 node are resolved by index: top[0][c] is the root's child
// along c, top[s][c] the child along c of the root's child along s. Those
// nodes get their sibling lists from the table once every keyword is in
// (linkTop); deeper nodes keep theirs as they go.
type acTrie struct {
	nodes []acTrieNode
	top   [acAlpha][acAlpha]int32
}

// step returns n's child along symbol c, or 0.
func (t *acTrie) step(n int32, c uint8) int32 {
	if n == 0 {
		return t.top[0][c]
	}
	if s := t.nodes[n].sym; t.top[0][s] == n {
		return t.top[s][c]
	}
	ch := t.nodes[n].child
	for ch != 0 && t.nodes[ch].sym < c {
		ch = t.nodes[ch].sibling
	}
	if ch != 0 && t.nodes[ch].sym == c {
		return ch
	}
	return 0
}

// insert adds the keyword's path and returns its final node. The keyword
// is read through acClass, so it may be spelled in either case.
func (t *acTrie) insert(kw string) int32 {
	nodes := t.nodes
	cur := int32(0)
	for i := 0; i < len(kw); i++ {
		c := acClass[kw[i]]
		if i < 2 {
			edge := &t.top[0][c]
			if i == 1 {
				edge = &t.top[nodes[cur].sym][c]
			}
			if *edge == 0 {
				nodes = append(nodes, acTrieNode{sym: c})
				*edge = int32(len(nodes) - 1)
			}
			cur = *edge
			continue
		}
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
	t.nodes = nodes
	return cur
}

// linkTop threads the sibling lists of the root's and the depth-1 nodes'
// children from the table, in ascending symbol order like every other list.
func (t *acTrie) linkTop() {
	for s := range t.top {
		parent := int32(0)
		if s != 0 {
			if parent = t.top[0][s]; parent == 0 {
				continue
			}
		}
		head := int32(0)
		for c := acAlpha - 1; c > 0; c-- {
			if ch := t.top[s][c]; ch != 0 {
				t.nodes[ch].sibling = head
				head = ch
			}
		}
		t.nodes[parent].child = head
	}
}

// buildAutomaton compiles the automaton over the rules member admits (nil
// admits all), each indexed under its entry of kws — selectKeywords'
// choice, though any run of the rule's pattern would do. A rule member
// excludes, or kws files under its page domains, contributes no keyword and
// no generic entry: it is invisible to this automaton, not demoted to its
// generic bucket. Ordinals in the
// output arrays index the FULL rule set (and the header carries the full
// set's count and CRC), which is what lets a hot automaton compiled from the
// same list as its whole one share one rules array, one checksum, one guard
// array and the untiered validation path. The build is deterministic — children in
// symbol order, BFS, first-fit slot placement — so the same rules and
// keywords always serialize to the same bytes (snapshot versions are
// content CRCs; a rebuild must not change them).
func buildAutomaton(rules []*Rule, kws []kwSpan, rulesCRC uint64, member []bool) *automaton {
	// Trie construction. ends[i] is the node the i-th keyworded rule's
	// path stops at; ords[i] is that rule's ordinal. A keyword adds at most
	// its length in nodes, but keywords share prefixes and rules share
	// keywords (a 70 k-rule list: 588 k keyword bytes, 121 k nodes), so the
	// trie starts at a quarter of that bound and append takes it further.
	nkw, kwBytes := 0, 0
	for ord, r := range rules {
		if r.IsHTTP() && (member == nil || member[ord]) && !kws[ord].none() {
			nkw++
			kwBytes += int(kws[ord].hi - kws[ord].lo)
		}
	}
	t := &acTrie{nodes: make([]acTrieNode, 1, 1+kwBytes/4)}
	ords, ends := make([]uint32, 0, nkw), make([]int32, 0, nkw)
	var generic []uint32
	for ord, r := range rules {
		kw := kws[ord]
		if !r.IsHTTP() || kw.byDomain() || member != nil && !member[ord] {
			continue
		}
		if kw.none() {
			generic = append(generic, uint32(ord))
			continue
		}
		ords = append(ords, uint32(ord))
		ends = append(ends, t.insert(r.Pattern[kw.lo:kw.hi]))
	}
	t.linkTop()
	trie := t.nodes

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
				to := t.step(f, c)
				for to == 0 && f != 0 {
					f = trie[f].fail
					to = t.step(f, c)
				}
				trie[ch].fail = to
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

	// Fill the arrays in place, behind the header of the contiguous
	// little-endian region: on a little-endian host body is a view of the
	// region itself, elsewhere a copy encoded into it afterwards.
	numSlots := len(used)
	nbody := 3*numSlots + (numSlots + 1) + totalOut + len(generic)
	blob := alignedBytes(acHeaderSize + 4*nbody)
	body := u32view(blob[acHeaderSize:])
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

	copy(blob, acMagic)
	le := binary.LittleEndian
	le.PutUint32(blob[4:], acVersion)
	le.PutUint32(blob[8:], uint32(numSlots))
	le.PutUint32(blob[12:], 0) // root
	le.PutUint32(blob[16:], uint32(totalOut))
	le.PutUint32(blob[20:], uint32(len(generic)))
	le.PutUint32(blob[24:], uint32(len(rules)))
	le.PutUint64(blob[32:], rulesCRC)
	if !hostLittleEndian {
		for i, v := range body {
			le.PutUint32(blob[acHeaderSize+4*i:], v)
		}
	}

	a, err := openAutomaton(blob, len(rules), rulesCRC)
	if err != nil {
		panic(fmt.Sprintf("abp: internal: freshly built automaton failed validation: %v", err))
	}
	return a
}

// placeChildren finds the first-fit base for trie node n's children,
// claims their slots, and returns the base with the grown used table and
// the advanced lowest free slot. The search is the inner loop of the
// build, so the children's symbols are copied out of the sibling list
// once and each candidate base is tested against that local array.
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

// alignedBytes allocates an 8-byte-aligned byte slice so the in-memory
// build always qualifies for the zero-copy u32 view.
func alignedBytes(n int) []byte {
	w := make([]uint64, (n+7)/8)
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), n)
}

// u32view reinterprets a little-endian u32 array. Zero-copy when the host
// is little-endian and the bytes are 4-aligned; decoded copy otherwise.
func u32view(b []byte) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// textView reinterprets b as a string, zero-copy: the string aliases b, so
// b must stay unmodified for as long as the string, or any substring cut
// from it, is in use.
func textView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// openAutomaton decodes and validates a serialized region against the
// rule set it will index. Validation is what makes scanning a hostile or
// stale blob safe: every structural invariant the scan loop relies on —
// in-bounds bases, parents, fail links that strictly decrease depth
// (termination), monotone output offsets, ordinals inside the rule set —
// is checked once here, so the hot path needs no defensive code beyond
// its natural bounds checks. Errors wrap artifact.ErrCorrupt: a blob that
// fails here is a damaged or mismatched artifact, not a format novelty.
func openAutomaton(blob []byte, wantRules int, wantCRC uint64) (*automaton, error) {
	corrupt := func(format string, args ...any) error {
		return artifact.Corruptf("automaton-invalid", format, args...)
	}
	if len(blob) < acHeaderSize {
		return nil, corrupt("region too short: %d bytes", len(blob))
	}
	if string(blob[:4]) != acMagic {
		return nil, corrupt("bad magic %q", blob[:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(blob[4:]); v != acVersion {
		return nil, corrupt("unsupported automaton version %d", v)
	}
	numSlots := le.Uint32(blob[8:])
	root := le.Uint32(blob[12:])
	numOut := le.Uint32(blob[16:])
	numGen := le.Uint32(blob[20:])
	numRules := le.Uint32(blob[24:])
	rulesCRC := le.Uint64(blob[32:])
	if numSlots == 0 || root != 0 {
		return nil, corrupt("bad geometry: slots=%d root=%d", numSlots, root)
	}
	want := uint64(acHeaderSize) + 4*(3*uint64(numSlots)+uint64(numSlots)+1+uint64(numOut)+uint64(numGen))
	if uint64(len(blob)) != want {
		return nil, corrupt("region is %d bytes, header frames %d", len(blob), want)
	}
	if int(numRules) != wantRules {
		return nil, corrupt("compiled for %d rules, list has %d", numRules, wantRules)
	}
	if rulesCRC != wantCRC {
		return nil, corrupt("compiled against different rules (crc %016x, list %016x)", rulesCRC, wantCRC)
	}

	a := &automaton{
		blob:     blob,
		numSlots: numSlots,
		root:     root,
		numRules: numRules,
		rulesCRC: rulesCRC,
	}
	off := uint64(acHeaderSize)
	next := func(n uint64) []uint32 {
		v := u32view(blob[off : off+4*n])
		off += 4 * n
		return v
	}
	a.base = next(uint64(numSlots))
	a.check = next(uint64(numSlots))
	a.fail = next(uint64(numSlots))
	a.outIdx = next(uint64(numSlots) + 1)
	a.outputs = next(uint64(numOut))
	a.generic = next(uint64(numGen))

	if a.check[root] != root || a.fail[root] != root || a.base[root] >= numSlots+acAlpha {
		return nil, corrupt("malformed root slot")
	}
	// Depth-validate occupied slots: parents in bounds and consistent with
	// their base, fail links pointing strictly shallower. depth doubles as
	// the cycle detector (unresolvable parent chains never terminate in a
	// well-formed trie and are bounded here by numSlots).
	const depthUnknown = ^uint32(0)
	depth := make([]uint32, numSlots)
	for i := range depth {
		depth[i] = depthUnknown
	}
	depth[root] = 0
	var chain []uint32
	for s := uint32(0); s < numSlots; s++ {
		if a.check[s] == acEmptySlot || depth[s] != depthUnknown {
			continue
		}
		chain = chain[:0]
		t := s
		for depth[t] == depthUnknown {
			p := a.check[t]
			if p >= numSlots || a.check[p] == acEmptySlot {
				return nil, corrupt("slot %d has invalid parent %d", t, p)
			}
			sym := int64(t) - int64(a.base[p])
			if sym < 1 || sym >= acAlpha {
				return nil, corrupt("slot %d inconsistent with parent %d base %d", t, p, a.base[p])
			}
			if uint32(len(chain)) > numSlots {
				return nil, corrupt("parent cycle at slot %d", s)
			}
			chain = append(chain, t)
			t = p
		}
		d := depth[t]
		for i := len(chain) - 1; i >= 0; i-- {
			d++
			depth[chain[i]] = d
		}
	}
	for s := uint32(0); s < numSlots; s++ {
		if a.check[s] == acEmptySlot {
			if a.outIdx[s+1] != a.outIdx[s] {
				return nil, corrupt("empty slot %d carries outputs", s)
			}
			continue
		}
		if a.base[s] >= numSlots+acAlpha {
			return nil, corrupt("slot %d base %d out of range", s, a.base[s])
		}
		f := a.fail[s]
		if f >= numSlots || a.check[f] == acEmptySlot {
			return nil, corrupt("slot %d fail %d invalid", s, f)
		}
		if s != root && depth[f] >= depth[s] {
			return nil, corrupt("slot %d fail %d does not decrease depth", s, f)
		}
		if a.outIdx[s+1] < a.outIdx[s] {
			return nil, corrupt("output index not monotone at slot %d", s)
		}
	}
	if a.outIdx[numSlots] != numOut {
		return nil, corrupt("output index frames %d entries, header says %d", a.outIdx[numSlots], numOut)
	}
	for _, o := range a.outputs {
		if o >= numRules {
			return nil, corrupt("output ordinal %d out of range (%d rules)", o, numRules)
		}
	}
	for i, g := range a.generic {
		if g >= numRules {
			return nil, corrupt("generic ordinal %d out of range (%d rules)", g, numRules)
		}
		if i > 0 && a.generic[i-1] >= g {
			return nil, corrupt("generic ordinals not ascending at %d", i)
		}
	}
	return a, nil
}

// A guard is the literal context of the run a rule is filed under, in the
// rule's own pattern: the byte before the run and up to guardAfter bytes after
// it, cut at '*', '^' or the pattern's end and folded as matchCtx.low folds
// the URL. A run is maximal, so what stands next to it is never a keyword
// byte: the context costs the automaton no states, and the byte before, no
// letter, needs no folding. The scan checks the guard at each occurrence of
// the run before nominating the rule. A rule that matches a URL lays its run
// somewhere in it with exactly those neighbours (under $match-case too: equal
// bytes fold equal), so "-ad-300x250.7" is no candidate of "-ad-300x250.3.js",
// nor "||site12.example^" of site1234.example, nor a rule filed under "123" of
// every three digits of a cache-buster. Zero admits every occurrence.
//
//	bits 0–31   the bytes after the run, the nearest lowest
//	bits 32–39  the byte before the run
//	bits 40–47  the run's length when the byte before is held (it says where
//	            to look), 0 when there is none or the run is past 255 bytes
//	bits 48–50  how many bytes after are held
type guard uint64

const guardAfter = 4

// ruleGuard reads the guard of the run at kw out of the pattern.
func ruleGuard(pat string, kw kwSpan) guard {
	var g guard
	if n := kw.hi - kw.lo; kw.lo > 0 && n <= 0xff {
		if b := pat[kw.lo-1]; b != '*' && b != '^' {
			g = guard(n)<<40 | guard(b)<<32
		}
	}
	k := 0
	for after := pat[kw.hi:]; k < guardAfter && k < len(after) && after[k] != '*' && after[k] != '^'; k++ {
		g |= guard(lowerByte(after[k])) << (8 * k)
	}
	return g | guard(k)<<48
}

// ruleGuards is the guard of every rule kws files under a run.
func ruleGuards(rules []*Rule, kws []kwSpan) []guard {
	guards := make([]guard, len(rules))
	for ord, kw := range kws {
		if !kw.none() && !kw.byDomain() {
			guards[ord] = ruleGuard(rules[ord].Pattern, kw)
		}
	}
	return guards
}

// admits reports whether the run that ends just before s[end] stands in the
// guard's context there. A context that would begin before s or end after it
// is not there.
func (g guard) admits(s string, end int) bool {
	if n := int(g >> 40 & 0xff); n != 0 {
		if p := end - n - 1; p < 0 || s[p] != byte(g>>32) {
			return false
		}
	}
	after := s[end:]
	k := int(g >> 48)
	if k > len(after) {
		return false
	}
	for i := 0; i < k; i++ {
		if lowerByte(after[i]) != byte(g>>(8*i)) {
			return false
		}
	}
	return true
}

// spelling appends the symbols on the path from the root to state s, last
// first: the keyword whose occurrences end in s, as scan classes.
func (a *automaton) spelling(dst []byte, s uint32) []byte {
	for s != a.root {
		p := a.check[s]
		dst = append(dst, byte(s-a.base[p]))
		s = p
	}
	return dst
}

// findRun returns the first maximal run of the pattern that spells the keyword
// kw begins with: scan classes, last first, ended by a 0 (spelling's form, as
// attachHot stores it).
func findRun(pat string, kw []byte) (kwSpan, bool) {
next:
	for i, j := nextKeywordRun(pat, 0); i >= 0; i, j = nextKeywordRun(pat, j) {
		if n := j - i; n >= len(kw) || kw[n] != 0 {
			continue
		}
		for k := i; k < j; k++ {
			if acClass[pat[k]] != kw[j-1-k] {
				continue next
			}
		}
		return kwSpan{uint32(i), uint32(j)}, true
	}
	return kwSpan{}, false
}

// scanInto scans the request URL once and pushes the ordinals of every rule
// whose keyword occurs in it somewhere its guard admits, plus the generic
// (keyword-less) rules, into whatever the context's scratch already holds: a
// lookup scans one automaton and the page-domain index into one scratch and
// sorts once (sortedCands), so verification walks the combined set in
// insertion order and reproduces the linear scan. Every byte has a scan class, so every string scans. guards is
// the list's, indexed by ordinal like the outputs.
func (a *automaton) scanInto(c *matchCtx, guards []guard) {
	s := c.q.URL
	st := a.root
	base, check, fail := a.base, a.check, a.fail
	outIdx := a.outIdx
	numSlots := uint32(len(check))
	for i := 0; i < len(s); i++ {
		cls := uint32(acClass[s[i]])
		if cls == 0 {
			st = a.root
			continue
		}
		for {
			t := base[st] + cls
			if t < numSlots && check[t] == st {
				st = t
				break
			}
			if st == a.root {
				break
			}
			st = fail[st]
		}
		if lo, hi := outIdx[st], outIdx[st+1]; hi > lo {
			for _, ord := range a.outputs[lo:hi] {
				if guards[ord].admits(s, i+1) {
					c.pushCand(ord)
				}
			}
		}
	}
	for _, g := range a.generic {
		c.pushCand(g)
	}
}
