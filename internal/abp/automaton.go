package abp

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"slices"
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
// rules and the rules the page-domain index (domainindex.go) files under the
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
// domains.
//
// Beside each span it hands back the id of the chosen run, -1 for none: rules
// filed under the same keyword share it, so the build sorts each keyword once
// (buildRegion). The ids are the compile's alone; a List keeps neither.
func selectKeywords(rules []*Rule) (kws []kwSpan, runs []int32) {
	kws, runs = make([]kwSpan, len(rules)), make([]int32, len(rules))
	sc := getScratch()
	defer putScratch(sc)
	// Counting pass: each chunk of the rules tallies its runs in a table of
	// its own, and every run of every pattern, in order, is listed with its id
	// there — so the choice pass reads its counts by index and hashes nothing.
	// Then each chunk looks its runs up in the others' tables, all at once, for
	// their counts across the list and an id that the first chunk holding the
	// run gives it: no table is merged into another.
	k := compileWorkers(len(rules))
	chunks := sc.selChunks(k)
	eachChunk(k, len(rules), func(c, lo, hi int) { chunks[c].count(rules[lo:hi]) })
	fanOut(k, func(c int) { chunks[c].join(chunks, c) })
	named := chunks[0].named
	for c := 1; c < k; c++ {
		for d, n := range chunks[c].named {
			named[d] += n
		}
	}
	eachChunk(k, len(rules), func(c, lo, hi int) {
		chunks[c].choose(rules, lo, hi, named, kws, runs)
	})
	return kws, runs
}

// selChunk is one chunk's share of selectKeywords: every run of its rules'
// patterns in order (at), with the index past each HTTP rule's last (ends);
// its runs and $domain= names counted, by an id of the chunk's own; and, by
// that id, each run's count across the list and its id there (join). The
// acUbiquitous runs hold the first ids in every chunk, and are never joined.
type selChunk struct {
	ids    map[string]int32
	counts []int32
	at     []selRun
	ends   []int32
	keys   []string
	named  map[string]int32
	total  []int32
	global []int32
}

// selRun is one run of a pattern and its id in the chunk.
type selRun struct {
	kwSpan
	id int32
}

// count tallies the runs and $domain= names of the chunk's HTTP rules. Its
// tables are sized by the chunk's HTTP rules, each of which spells a few runs.
func (ch *selChunk) count(rules []*Rule) {
	http := 0
	for _, r := range rules {
		if r.IsHTTP() {
			http++
		}
	}
	u := len(acUbiquitous)
	if ch.ids == nil {
		ch.ids, ch.named = make(map[string]int32, u+http), make(map[string]int32)
	}
	for id, run := range acUbiquitous {
		ch.ids[run] = int32(id)
	}
	ch.counts = slices.Grow(ch.counts[:0], u+http)[:u]
	clear(ch.counts)
	ch.keys = append(slices.Grow(ch.keys[:0], u+http), acUbiquitous...)
	ch.at, ch.ends = slices.Grow(ch.at[:0], 3*http), slices.Grow(ch.ends[:0], http)
	for _, r := range rules {
		if !r.IsHTTP() {
			continue
		}
		// The runs come from the pattern as the matcher compares it
		// (matchURLCtx), A–Z folded: a byte ≥ 0x80 never joins a run. A line
		// the parse found no A–Z in (foldFree, but for $match-case) has
		// nothing to fold.
		pat := r.Pattern
		if !r.foldFree || r.MatchCase {
			pat = lowerASCII(pat)
		}
		for i, j := nextKeywordRun(pat, 0); i >= 0; i, j = nextKeywordRun(pat, j) {
			run := pat[i:j]
			id, seen := ch.ids[run]
			if !seen {
				id = int32(len(ch.counts))
				ch.ids[run] = id
				ch.counts = append(ch.counts, 0)
				ch.keys = append(ch.keys, run)
			}
			ch.counts[id]++
			ch.at = append(ch.at, selRun{kwSpan{uint32(i), uint32(j)}, id})
		}
		ch.ends = append(ch.ends, int32(len(ch.at)))
		for _, d := range r.Domains() {
			ch.named[d]++
		}
	}
}

// join gives each run of chunk c its count across the list (total) and its
// id (global): the run's id in the first chunk holding it, offset past the
// ids of the chunks before that one. The acUbiquitous ids are everywhere
// their own, and rank last.
func (ch *selChunk) join(chunks []selChunk, c int) {
	offset := make([]int32, len(chunks))
	for i := 1; i < len(chunks); i++ {
		offset[i] = offset[i-1] + int32(len(chunks[i-1].counts))
	}
	ch.global, ch.total = resize(ch.global, len(ch.counts)), resize(ch.total, len(ch.counts))
	for id := range acUbiquitous {
		ch.global[id], ch.total[id] = int32(id), math.MaxInt32
	}
	for id := len(acUbiquitous); id < len(ch.keys); id++ {
		owner, ownID, n := c, int32(id), ch.counts[id]
		for o := range chunks {
			if o == c {
				continue
			}
			if oid, ok := chunks[o].ids[ch.keys[id]]; ok {
				n += chunks[o].counts[oid]
				if o < owner {
					owner, ownID = o, oid
				}
			}
		}
		ch.global[id], ch.total[id] = offset[owner]+ownID, n
	}
}

// choose files rules[lo:hi], the chunk's, by the list's counts.
func (ch *selChunk) choose(rules []*Rule, lo, hi int, named map[string]int32, kws []kwSpan, runs []int32) {
	next, rule := int32(0), 0
	for ord := lo; ord < hi; ord++ {
		r := rules[ord]
		runs[ord] = -1
		if !r.IsHTTP() {
			continue
		}
		var best kwSpan
		bestN, bestID := int32(0), int32(-1)
		for end := ch.ends[rule]; next < end; next++ {
			run := ch.at[next]
			if n := ch.total[run.id]; best.none() || n < bestN || n == bestN && run.hi-run.lo > best.hi-best.lo {
				best, bestN, bestID = run.kwSpan, n, ch.global[run.id]
			}
		}
		rule++
		most := int32(0)
		for _, d := range r.Domains() {
			most = max(most, named[d])
		}
		if most > 0 && (best.none() || most < bestN) {
			best, bestID = kwByDomain, -1
		}
		kws[ord], runs[ord] = best, bestID
	}
}

// release drops what the chunk's tables point into, keeping their room.
func (ch *selChunk) release() {
	clear(ch.ids)
	clear(ch.keys)
	clear(ch.named)
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

// buildRegion compiles the automaton region over the rules, each indexed
// under its entry of kws — selectKeywords' choice, though any run of the
// rule's pattern would do — short of the rules checksum, which a compile sums
// meanwhile: the region holds a zero in its place (openBuilt writes it). A
// rule kws files under its page domains contributes no keyword and no generic
// entry: the page-domain index serves it. runs, when not nil, is
// selectKeywords' id of each rule's run: the rules of one id are filed under
// one keyword, sorted once. The build is deterministic — children in symbol
// order, BFS, first-fit slot placement — so the same rules and keywords always
// serialize to the same bytes (snapshot versions are content CRCs; a rebuild
// must not change them).
//
// No trie is searched to build it. The distinct keywords, sorted by their
// scan classes, list the trie's nodes in breadth-first order level by level:
// the nodes at depth d are the keywords' distinct d-symbol prefixes in sorted
// order, so a node's id is its BFS position and its children are one
// contiguous run of ids, in symbol order. Fail links and slot placement read
// only the levels, so above parallelRules they run at once.
func buildRegion(rules []*Rule, kws []kwSpan, runs []int32) []byte {
	sc := getScratch()
	defer putScratch(sc)
	b := &sc.build
	b.collect(rules, kws, runs)
	b.sortKeys()
	b.levels()
	overlapped(len(b.keys), b.failLinks, b.place)
	return b.fill(len(rules))
}

// openBuilt writes the rules checksum into a freshly built region and
// attaches it.
func openBuilt(region []byte, numRules int, rulesCRC uint64) *automaton {
	binary.LittleEndian.PutUint64(region[32:], rulesCRC)
	a, err := openAutomaton(region, numRules, rulesCRC)
	if err != nil {
		panic(fmt.Sprintf("abp: internal: freshly built automaton failed validation: %v", err))
	}
	return a
}

// trieBuild is buildRegion's working memory, phase by phase. Nodes are
// numbered by BFS position, the root 0.
type trieBuild struct {
	// collect: the keywords (items), spelled in scan classes so that they
	// compare as strings, each from the pattern of a rule filed under it
	// (reps); the keyworded rules with their items, and the generic ones.
	// seen[id] is run id's item plus one.
	keys     []string
	text     []byte
	keyEnd   []int32
	reps     []int32
	ords     []uint32
	ordItems []int32
	generic  []uint32
	seen     []int32

	// sortKeys: perm lists the items in sorted order; tmp and cls are the
	// counting sort's buffers. levels reuses tmp for the common prefix each
	// item shares with the one before it.
	perm, tmp []int32
	cls       []uint8

	// levels: each node's parent and the symbol into it; its children are
	// nodes child[n] to child[n+1]-1, and top[n][c] the child along c of the
	// root and of each depth-1 node; the nodes of depth d are depthAt[d] to
	// depthAt[d+1]-1. ends[i] is the node item i ends at; width and cur count
	// and walk the nodes of each depth.
	parent     []int32
	sym        []uint8
	child      []int32
	ends       []int32
	width, cur []int32
	depthAt    []int32
	top        [acAlpha][acAlpha]int32

	// failLinks: each node's fail link; own[ownIdx[n]:ownIdx[n+1]] the
	// ordinals of the rules whose keyword ends at n, ascending; nout[n] the
	// size of n's output list once those down its fail chain are merged in.
	fail     []int32
	ownIdx   []uint32
	own      []uint32
	nout     []uint32
	totalOut int

	// place: each node's slot and its children's base; used marks the
	// slots taken, and its length is the double array's.
	slot, baseOf []int32
	used         []bool
}

// resize returns s with length n, reusing its room; what it holds is
// unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// collect lists the build's keywords and rules, and spells the keywords,
// on every core above parallelRules of them.
func (b *trieBuild) collect(rules []*Rule, kws []kwSpan, runs []int32) {
	b.reps, b.ords, b.ordItems, b.generic = b.reps[:0], b.ords[:0], b.ordItems[:0], b.generic[:0]
	if runs != nil {
		ids := int32(0)
		for _, id := range runs {
			ids = max(ids, id+1)
		}
		b.seen = resize(b.seen, int(ids))
		clear(b.seen)
	}
	for ord, kw := range kws {
		// A span that is a run is an HTTP rule's (selectKeywords): only a
		// rule filed nowhere is looked at to tell a generic one.
		if kw.byDomain() || kw.none() && !rules[ord].IsHTTP() {
			continue
		}
		if kw.none() {
			b.generic = append(b.generic, uint32(ord))
			continue
		}
		item := int32(len(b.reps))
		if runs != nil {
			if seen := &b.seen[runs[ord]]; *seen != 0 {
				item = *seen - 1
			} else {
				*seen = item + 1
			}
		}
		if item == int32(len(b.reps)) {
			b.reps = append(b.reps, int32(ord))
		}
		b.ords = append(b.ords, uint32(ord))
		b.ordItems = append(b.ordItems, item)
	}
	b.keys, b.keyEnd = resize(b.keys, len(b.reps)), resize(b.keyEnd, len(b.reps))
	end := int32(0)
	for i, ord := range b.reps {
		end += int32(kws[ord].hi - kws[ord].lo)
		b.keyEnd[i] = end
	}
	b.text = resize(b.text, int(end))
	eachChunk(compileWorkers(len(b.reps)), len(b.reps), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			kw := kws[b.reps[i]]
			key := b.text[b.keyEnd[i]-int32(kw.hi-kw.lo) : b.keyEnd[i]]
			for j, c := range []byte(rules[b.reps[i]].Pattern[kw.lo:kw.hi]) {
				key[j] = acClass[c]
			}
			b.keys[i] = unsafe.String(&key[0], len(key))
		}
	})
}

// sortKeys orders the keywords by their scan classes, each before the
// longer ones it begins: an MSD counting sort whose first pass files them
// under their first symbol, after which each symbol's bucket is sorted on
// its own, the buckets split among the cores above parallelRules keywords.
func (b *trieBuild) sortKeys() {
	n := len(b.keys)
	b.perm, b.tmp, b.cls = resize(b.perm, n), resize(b.tmp, n), resize(b.cls, n)
	var at [acAlpha + 1]int
	for i, k := range b.keys {
		c := k[0]
		b.cls[i] = c
		at[c+1]++
	}
	for c := 1; c <= acAlpha; c++ {
		at[c] += at[c-1]
	}
	next := at
	for i, c := range b.cls {
		b.perm[next[c]] = int32(i)
		next[c]++
	}
	// Worker w sorts the buckets from bucket[w] on, about n/k keywords.
	k := compileWorkers(n)
	bucket := make([]int, k+1)
	for w, c := 1, 0; w < k; w++ {
		for c < acAlpha && at[c+1] < w*n/k {
			c++
		}
		bucket[w] = c
	}
	bucket[k] = acAlpha
	fanOut(k, func(w int) {
		for c := bucket[w]; c < bucket[w+1]; c++ {
			lo, hi := at[c], at[c+1]
			msdSort(b.keys, b.perm[lo:hi], b.tmp[lo:hi], b.cls[lo:hi], 1)
		}
	})
}

// msdSort sorts the items in perm, whose keywords agree on their first d
// symbols, by the rest; tmp and cls are buffers as long as perm.
func msdSort(keys []string, perm, tmp []int32, cls []uint8, d int) {
	for len(perm) > 1 {
		if len(perm) <= 16 {
			insertionSort(keys, perm, d)
			return
		}
		var at [acAlpha + 1]int
		for i, it := range perm {
			c := uint8(0)
			if k := keys[it]; d < len(k) {
				c = k[d]
			}
			cls[i] = c
			at[c+1]++
		}
		if c := cls[0]; at[c+1] == len(perm) {
			// One symbol (or the end) for every keyword: no sort at this depth.
			if c == 0 {
				return
			}
			d++
			continue
		}
		for c := 1; c <= acAlpha; c++ {
			at[c] += at[c-1]
		}
		next := at
		for i, c := range cls[:len(perm)] {
			tmp[next[c]] = perm[i]
			next[c]++
		}
		copy(perm, tmp)
		// Bucket 0 holds the keywords that end here: all equal.
		for c := 1; c < acAlpha; c++ {
			if lo, hi := at[c], at[c+1]; hi-lo > 1 {
				msdSort(keys, perm[lo:hi], tmp[lo:hi], cls[lo:hi], d+1)
			}
		}
		return
	}
}

// insertionSort is msdSort for a handful of items.
func insertionSort(keys []string, perm []int32, d int) {
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && keys[perm[j]][d:] < keys[perm[j-1]][d:]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
}

// commonPrefix is how many symbols two keywords share from the start.
func commonPrefix(x, y string) int {
	n := 0
	for n < len(x) && n < len(y) && x[n] == y[n] {
		n++
	}
	return n
}

// levels creates the nodes from the sorted keywords. A keyword's prefixes
// up to the common prefix it shares with the keyword before it are that
// keyword's nodes; each longer prefix is a new node, the next id of its
// depth. So the nodes of a depth are numbered in sorted order, after every
// shallower node: breadth-first, children in symbol order. Above
// parallelRules keywords each core numbers a share of them: a share's nodes
// of a depth follow the shares' before it, and its first keyword's shared
// prefix is the path of the last node of each depth before it.
func (b *trieBuild) levels() {
	lcp, maxLen := b.tmp, 0
	for _, k := range b.keys {
		maxLen = max(maxLen, len(k))
	}
	k, depths := compileWorkers(len(b.keys)), maxLen+2
	// width[w·depths+d] counts share w's nodes at depth d, later the next id
	// there; cur[w·depths+d] is share w's path.
	b.width, b.cur = resize(b.width, k*depths), resize(b.cur, k*depths)
	clear(b.width)
	share := func(w int) (lo, hi int) { return w * len(b.perm) / k, (w + 1) * len(b.perm) / k }
	fanOut(k, func(w int) {
		lo, hi := share(w)
		width := b.width[w*depths : (w+1)*depths]
		prev := ""
		if lo > 0 {
			prev = b.keys[b.perm[lo-1]]
		}
		for i := lo; i < hi; i++ {
			key := b.keys[b.perm[i]]
			l := commonPrefix(prev, key)
			lcp[i], prev = int32(l), key
			width[l+1]++
			width[len(key)+1]--
		}
	})
	nodes := int32(1)
	run := make([]int32, k)
	b.depthAt = resize(b.depthAt, depths+1)
	b.depthAt[0] = 0
	for d := 1; d < depths; d++ {
		b.depthAt[d] = nodes
		for w := range k {
			run[w] += b.width[w*depths+d]
			b.width[w*depths+d] = nodes
			nodes += run[w]
		}
	}
	b.depthAt[depths] = nodes
	b.parent, b.sym, b.ends = resize(b.parent, int(nodes)), resize(b.sym, int(nodes)), resize(b.ends, len(b.keys))
	b.parent[0], b.sym[0] = 0, 0
	fanOut(k, func(w int) {
		lo, hi := share(w)
		next, cur := b.width[w*depths:(w+1)*depths], b.cur[w*depths:(w+1)*depths]
		cur[0] = 0
		if lo < hi {
			for d := 1; d <= int(lcp[lo]); d++ {
				cur[d] = next[d] - 1
			}
		}
		for i := lo; i < hi; i++ {
			it := b.perm[i]
			key := b.keys[it]
			for d := int(lcp[i]) + 1; d <= len(key); d++ {
				n := next[d]
				next[d]++
				b.parent[n], b.sym[n] = cur[d-1], key[d-1]
				cur[d] = n
			}
			b.ends[it] = cur[len(key)]
		}
	})
	// Children are numbered in their parents' order.
	b.child = resize(b.child, int(nodes)+1)
	b.child[0] = 1
	p := int32(0)
	for n := int32(1); n < nodes; n++ {
		for p < b.parent[n] {
			p++
			b.child[p] = n
		}
	}
	for p < nodes {
		p++
		b.child[p] = nodes
	}
	// The root's and the depth-1 nodes' children, up to the alphabet's
	// width each, are indexed.
	for n := range b.child[1] {
		b.top[n] = [acAlpha]int32{}
		for ch := b.child[n]; ch < b.child[n+1]; ch++ {
			b.top[n][b.sym[ch]] = ch
		}
	}
}

// step returns n's child along symbol c, or 0.
func (b *trieBuild) step(n int32, c uint8) int32 {
	if n < b.child[1] {
		return b.top[n][c]
	}
	for ch := b.child[n]; ch < b.child[n+1]; ch++ {
		if s := b.sym[ch]; s >= c {
			if s == c {
				return ch
			}
			break
		}
	}
	return 0
}

// failLinks files each keyworded rule at its node and links each node to
// its longest proper suffix in the trie. Nodes are visited in BFS order, so a
// node's fail state, being shallower, has its link and its merged output
// count already.
func (b *trieBuild) failLinks() {
	nodes := len(b.parent)
	b.ownIdx = resize(b.ownIdx, nodes+1)
	clear(b.ownIdx)
	for _, it := range b.ordItems {
		b.ownIdx[b.ends[it]+1]++
	}
	for n := 0; n < nodes; n++ {
		b.ownIdx[n+1] += b.ownIdx[n]
	}
	b.own = resize(b.own, len(b.ords))
	fill := resize(b.nout, nodes) // the next free entry of each node's list
	copy(fill, b.ownIdx)
	for i, it := range b.ordItems {
		n := b.ends[it]
		b.own[fill[n]] = b.ords[i]
		fill[n]++
	}
	b.fail, b.nout = resize(b.fail, nodes), fill
	b.fail[0], b.nout[0], b.totalOut = 0, 0, 0
	for n := 1; n < nodes; n++ {
		f, c := int32(0), b.sym[n]
		if p := b.parent[n]; p != 0 {
			f = b.fail[p]
			to := b.step(f, c)
			for to == 0 && f != 0 {
				f = b.fail[f]
				to = b.step(f, c)
			}
			f = to
		}
		b.fail[n] = f
		b.nout[n] = b.ownIdx[n+1] - b.ownIdx[n] + b.nout[f]
		b.totalOut += int(b.nout[n])
	}
}

// place gives each node a slot, in BFS order, its children at the
// first-fit base: the lowest at which every child's slot is free.
func (b *trieBuild) place() {
	nodes := len(b.parent)
	b.slot, b.baseOf = resize(b.slot, nodes), resize(b.baseOf, nodes)
	b.slot[0] = 0
	used := resize(b.used, max(1, cap(b.used)))
	clear(used)
	used = used[:1]
	used[0] = true
	minFree := 1
	for n := 0; n < nodes; n++ {
		lo, hi := b.child[n], b.child[n+1]
		if lo == hi {
			b.baseOf[n] = 0
			continue
		}
		syms := b.sym[lo:hi]
		first, last := int(syms[0]), int(syms[len(syms)-1])
	next:
		for pos := max(minFree, first); ; pos++ {
			for pos < len(used) && used[pos] {
				pos++
			}
			base := pos - first
			for _, c := range syms[1:] {
				if s := base + int(c); s < len(used) && used[s] {
					continue next
				}
			}
			if end := base + last + 1; end > len(used) {
				if end > cap(used) {
					used = slices.Grow(used, end-len(used)+len(used)/2)
				}
				used = used[:end]
			}
			for i, c := range syms {
				used[base+int(c)] = true
				b.slot[lo+int32(i)] = int32(base + int(c))
			}
			for minFree < len(used) && used[minFree] {
				minFree++
			}
			b.baseOf[n] = int32(base)
			break
		}
	}
	b.used = used
}

// fill lays the arrays out in place behind the header of one contiguous
// little-endian region: on a little-endian host body is a view of the region
// itself, elsewhere a copy encoded into it afterwards. A node's output list
// is its own rules, then its fail state's list, already merged. Above
// parallelRules nodes the cores share each pass: the slots, the nodes' own
// rules, and the merged lists one depth at a time, a fail state being
// shallower.
func (b *trieBuild) fill(numRules int) []byte {
	numSlots, nodes := len(b.used), len(b.slot)
	nbody := 3*numSlots + (numSlots + 1) + b.totalOut + len(b.generic)
	blob := alignedBytes(acHeaderSize + 4*nbody)
	body := u32view(blob[acHeaderSize:])
	base, check, fail := body[:numSlots], body[numSlots:2*numSlots], body[2*numSlots:3*numSlots]
	outIdx := body[3*numSlots : 4*numSlots+1]
	outputs := body[4*numSlots+1 : 4*numSlots+1+b.totalOut]
	copy(body[4*numSlots+1+b.totalOut:], b.generic)
	k := compileWorkers(len(b.keys))
	eachChunk(k, numSlots, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			check[s] = acEmptySlot
		}
	})
	eachChunk(k, nodes, func(_, lo, hi int) {
		for n := lo; n < hi; n++ {
			s := b.slot[n]
			base[s], check[s] = uint32(b.baseOf[n]), uint32(b.slot[b.parent[n]])
			fail[s], outIdx[s+1] = uint32(b.slot[b.fail[n]]), b.nout[n]
		}
	})
	for s := 0; s < numSlots; s++ {
		outIdx[s+1] += outIdx[s]
	}
	eachChunk(k, nodes, func(_, lo, hi int) {
		for n := lo; n < hi; n++ {
			copy(outputs[outIdx[b.slot[n]]:], b.own[b.ownIdx[n]:b.ownIdx[n+1]])
		}
	})
	for d := 2; d+1 < len(b.depthAt); d++ {
		lo, hi := int(b.depthAt[d]), int(b.depthAt[d+1])
		eachChunk(compileWorkers(hi-lo), hi-lo, func(_, from, to int) {
			for n := lo + from; n < lo+to; n++ {
				if f := b.fail[n]; f != 0 {
					pos := outIdx[b.slot[n]] + b.ownIdx[n+1] - b.ownIdx[n]
					from := outIdx[b.slot[f]]
					copy(outputs[pos:], outputs[from:from+b.nout[f]])
				}
			}
		})
	}

	copy(blob, acMagic)
	le := binary.LittleEndian
	le.PutUint32(blob[4:], acVersion)
	le.PutUint32(blob[8:], uint32(numSlots))
	le.PutUint32(blob[12:], 0) // root
	le.PutUint32(blob[16:], uint32(b.totalOut))
	le.PutUint32(blob[20:], uint32(len(b.generic)))
	le.PutUint32(blob[24:], uint32(numRules))
	if !hostLittleEndian {
		for i, v := range body {
			le.PutUint32(blob[acHeaderSize+4*i:], v)
		}
	}
	return blob
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
	k := compileWorkers(len(rules))
	eachChunk(k, len(rules), func(_, lo, hi int) {
		for ord := lo; ord < hi; ord++ {
			if kw := kws[ord]; !kw.none() && !kw.byDomain() {
				guards[ord] = ruleGuard(rules[ord].Pattern, kw)
			}
		}
	})
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
// attach stores it).
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
