package artifact

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Binary sections extend the artifact format with framed binary regions
// appended after a primary (text/JSON) document, all inside the payload
// the integrity trailer seals:
//
//	<primary document, ending in '\n'>
//	#adwars-section v1 name=automaton.0 len=8192 pad=3 crc64=9f…\n
//	<pad zero bytes><8192 data bytes>\n
//	#adwars-section v1 name=automaton.1 …
//	#adwars-integrity v1 len=… crc64=…
//
// Each header states its section's exact byte length, so parsing after the
// first header is length-directed — section data is opaque binary and may
// contain anything, including bytes that resemble headers. pad (0–7 zero
// bytes between the header line and the data) aligns the data start to 8
// bytes from the beginning of the payload; combined with an 8-aligned map
// base, an mmap consumer gets aligned views over the data for free. Like
// the trailer, headers begin with '#', which can never start a JSON
// document, so a reader that takes the first line and ignores the rest
// still finds the primary document.
//
// Sections ride inside the sealed payload: the trailer's CRC covers the
// primary and every section, and each header carries its section's CRC.
// Each side sums every byte once: the trailer's CRC is the section CRCs
// folded together with the framing bytes between them (crcCombine). A reader
// compares the trailer's CRC first, so a bit flip anywhere is
// "checksum-mismatch" exactly as OpenVersion reports it, and the section CRCs second;
// when a frame is broken there is nothing to fold, and the whole payload is
// summed instead.
const (
	// SectionPrefix starts every section header line.
	SectionPrefix = "#adwars-section "
	// SectionVersion is the current section header format version.
	SectionVersion = 1
	// sectionAlign is the alignment of each section's data start relative
	// to the beginning of the payload.
	sectionAlign = 8
)

// Section is one framed binary region of an artifact payload. Data
// aliases the payload it was opened from (zero-copy, mmap-preserved) and
// must not be modified. CRC is Checksum(Data): as OpenSections verified it,
// or as a writer already holds it (0: SealSections sums Data). SealSections
// trusts a CRC it is given because it may: the trailer is derived from it,
// so a wrong one seals a file every reader refuses as "checksum-mismatch".
type Section struct {
	Name string
	Data []byte
	CRC  uint64
}

// appendHeader appends to b what goes before a section's data: a
// separating newline when b does not end in one, the header line and the
// padding. base is the payload offset b starts at, so that the data lands
// sectionAlign-aligned in the payload; n is the data's length and crc its
// checksum. name must be non-empty and free of spaces and control
// characters.
func appendHeader(b []byte, base int, name string, n int, crc uint64) []byte {
	if name == "" || strings.ContainsAny(name, " \t\n\r") {
		panic(fmt.Sprintf("artifact: invalid section name %q", name))
	}
	if len(b) > 0 && b[len(b)-1] != '\n' {
		b = append(b, '\n')
	}
	// The pad digit is always exactly one byte (0–7), so the header's
	// length does not depend on the pad value and the alignment equation
	// has a fixed point: compute the header once with pad=0, then set the
	// real pad from the resulting data offset.
	header := fmt.Sprintf("%sv%d name=%s len=%d pad=0 crc64=%016x\n",
		SectionPrefix, SectionVersion, name, n, crc)
	pad := (sectionAlign - (base+len(b)+len(header))%sectionAlign) % sectionAlign
	if pad != 0 {
		header = strings.Replace(header, " pad=0 ", fmt.Sprintf(" pad=%d ", pad), 1)
	}
	b = append(b, header...)
	for i := 0; i < pad; i++ {
		b = append(b, 0)
	}
	return b
}

// sectionBound is more than the framing appendHeader and the closing
// newline put around a section's name and data: a separating newline, the
// header's fixed text with a 19-digit length and 16 hex digits, seven bytes
// of padding and the closing newline come to 87 bytes.
const sectionBound = 96

// SealSections writes primary followed by the sections and the integrity
// trailer to w: what Seal makes of primary with each section framed behind
// it (appendHeader, the data, a newline). The framing goes through one small
// buffer and each section's data straight to w, so nothing the size of the
// file is assembled; each section's data is summed at most once (not at all
// when its CRC is given), and the trailer's checksum folded from those sums.
// A *bytes.Buffer is grown once, to a bound on the sealed length.
func SealSections(w io.Writer, primary []byte, sections []Section) error {
	if b, ok := w.(*bytes.Buffer); ok {
		n := len(primary) + trailerBound
		for _, sec := range sections {
			n += len(sec.Name) + len(sec.Data) + sectionBound
		}
		b.Grow(n)
	}
	// written bytes of the payload have gone to w and crc is their checksum;
	// buf holds the payload bytes after them.
	written, crc := 0, uint64(0)
	buf := append(make([]byte, 0, len(primary)+sectionBound), primary...)
	for _, sec := range sections {
		if sec.CRC == 0 {
			sec.CRC = Checksum(sec.Data)
		}
		buf = appendHeader(buf, written, sec.Name, len(sec.Data), sec.CRC)
		crc = crcCombine(crc64.Update(crc, crcTable, buf), sec.CRC, len(sec.Data))
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if _, err := w.Write(sec.Data); err != nil {
			return err
		}
		written += len(buf) + len(sec.Data)
		buf = append(buf[:0], '\n')
	}
	_, err := w.Write(appendTrailer(buf, written, crc64.Update(crc, crcTable, buf)))
	return err
}

// sectionMark locates the first section header: a header line always
// follows a newline (or starts the payload). The primary document cannot
// contain the mark — a raw newline inside a JSON string is invalid JSON —
// and any later occurrence inside opaque section data is never searched
// for, because parsing after the first header is length-directed.
var sectionMark = []byte("\n" + SectionPrefix)

// OpenSections is OpenVersion plus the split of the payload into its
// primary document and binary sections: every section is framed first, then
// each section's data is summed once — those of parallelSum bytes or more on
// separate cores — and the sums are folded into the payload's checksum. A
// file is refused for the reason OpenVersion followed by a walk of the
// sections would give (see the top of the file). Payloads with no sections
// return (payload, nil, version, nil). Primary and every Data alias data.
func OpenSections(data []byte) (primary []byte, sections []Section, version string, err error) {
	payload, want, err := trailerFrame(data)
	if err != nil {
		return nil, nil, "", err
	}
	p := len(payload)
	if bytes.HasPrefix(payload, []byte(SectionPrefix)) {
		p = 0
	} else if i := bytes.Index(payload, sectionMark); i >= 0 {
		p = i + 1
	}
	primary = payload[:p]
	// framed holds every section whose frame was read, with the offset its
	// data starts at; the last may lack its closing newline (frameErr).
	var framed []Section
	var starts []int
	var frameErr error
	for p < len(payload) {
		sec, start, err := frameSection(payload, p)
		if err != nil {
			frameErr = err
			break
		}
		framed, starts = append(framed, sec), append(starts, start)
		if p = start + len(sec.Data); payload[p] != '\n' {
			frameErr = Corruptf("section-malformed", "section %q data not newline-terminated", sec.Name)
			break
		}
		p++
	}
	sums := sectionSums(framed)
	// got is the checksum of the payload up to p; bad reports the first
	// section whose data does not sum to its header's CRC.
	got, p := Checksum(primary), len(primary)
	var bad error
	for i, sec := range framed {
		if sums[i] != sec.CRC && bad == nil {
			bad = Corruptf("section-checksum-mismatch",
				"section %q data crc64 %016x, header says %016x (bit rot?)", sec.Name, sums[i], sec.CRC)
		}
		if frameErr == nil {
			got = crcCombine(crc64.Update(got, crcTable, payload[p:starts[i]]), sums[i], len(sec.Data))
			p = starts[i] + len(sec.Data)
			got = crc64.Update(got, crcTable, payload[p:p+1])
			p++
		}
	}
	if frameErr != nil {
		// When a frame is broken there is nothing to fold.
		got = Checksum(payload)
	}
	switch {
	case got != want:
		err = payloadMismatch(got, want)
	case bad != nil:
		err = bad
	case frameErr != nil:
		err = frameErr
	default:
		return primary, framed, fmt.Sprintf("%016x", want), nil
	}
	return nil, nil, "", err
}

// parallelSum is the section length from which OpenSections sums a section
// on a core of its own, beside the others: a smaller one sums in well under
// a millisecond, less than a goroutine would save.
const parallelSum = 1 << 18

// goroutinesStarted counts the goroutines sectionSums has started.
var goroutinesStarted atomic.Int64

// sectionSums returns the checksum of each section's data. The sections of
// parallelSum bytes or more are dealt out in turn to up to GOMAXPROCS
// workers, the caller the first of them; the caller sums the rest.
func sectionSums(sections []Section) []uint64 {
	sums := make([]uint64, len(sections))
	var large []int
	for i, sec := range sections {
		if len(sec.Data) >= parallelSum {
			large = append(large, i)
		}
	}
	k := max(1, min(runtime.GOMAXPROCS(0), len(large)))
	var wg sync.WaitGroup
	for w := 1; w < k; w++ {
		goroutinesStarted.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < len(large); j += k {
				sums[large[j]] = Checksum(sections[large[j]].Data)
			}
		}()
	}
	for j, i := 0, 0; i < len(sections); i++ {
		if j < len(large) && large[j] == i {
			if j++; (j-1)%k != 0 {
				continue
			}
		}
		sums[i] = Checksum(sections[i].Data)
	}
	wg.Wait()
	return sums
}

// frameSection reads the header of the section at payload[p:] and checks
// the length and padding it states. It returns the section, with the CRC
// the header states, and the offset its data starts at.
func frameSection(payload []byte, p int) (sec Section, start int, err error) {
	if !bytes.HasPrefix(payload[p:], []byte(SectionPrefix)) {
		return sec, 0, Corruptf("section-malformed", "expected section header at payload offset %d", p)
	}
	nl := bytes.IndexByte(payload[p:], '\n')
	if nl < 0 {
		return sec, 0, Corruptf("section-malformed", "unterminated section header at payload offset %d", p)
	}
	name, length, pad, crc, err := parseSectionHeader(string(payload[p : p+nl]))
	if err != nil {
		return sec, 0, err
	}
	start = p + nl + 1 + pad
	// Compared this way round, a length near the top of int cannot wrap.
	if length > len(payload)-start-1 {
		return sec, 0, Corruptf("section-length-mismatch",
			"section %q frames %d data bytes, payload has %d left (torn write?)",
			name, length, len(payload)-start)
	}
	for _, b := range payload[p+nl+1 : start] {
		if b != 0 {
			return sec, 0, Corruptf("section-malformed", "section %q has non-zero padding", name)
		}
	}
	return Section{Name: name, Data: payload[start : start+length], CRC: crc}, start, nil
}

// parseSectionHeader validates one header line of the form
// "#adwars-section v1 name=N len=L pad=P crc64=HEX".
func parseSectionHeader(line string) (name string, length, pad int, crc uint64, err error) {
	malformed := func(format string, args ...any) (string, int, int, uint64, error) {
		return "", 0, 0, 0, Corruptf("section-malformed", format, args...)
	}
	fields := strings.Fields(strings.TrimPrefix(line, SectionPrefix))
	if len(fields) != 5 {
		return malformed("want 5 section header fields, got %d in %q", len(fields), line)
	}
	ver, ok := strings.CutPrefix(fields[0], "v")
	if !ok {
		return malformed("bad section version field %q", fields[0])
	}
	v, err2 := strconv.Atoi(ver)
	if err2 != nil || v < 1 || v > SectionVersion {
		return malformed("unsupported section version %q (supported: v%d)", fields[0], SectionVersion)
	}
	name, ok = strings.CutPrefix(fields[1], "name=")
	if !ok || name == "" {
		return malformed("bad section name field %q", fields[1])
	}
	lenStr, ok := strings.CutPrefix(fields[2], "len=")
	if !ok {
		return malformed("bad section length field %q", fields[2])
	}
	length, err2 = strconv.Atoi(lenStr)
	if err2 != nil || length < 0 {
		return malformed("bad section length %q", lenStr)
	}
	padStr, ok := strings.CutPrefix(fields[3], "pad=")
	if !ok {
		return malformed("bad section pad field %q", fields[3])
	}
	pad, err2 = strconv.Atoi(padStr)
	if err2 != nil || pad < 0 || pad >= sectionAlign {
		return malformed("bad section pad %q", padStr)
	}
	crcStr, ok := strings.CutPrefix(fields[4], "crc64=")
	if !ok {
		return malformed("bad section checksum field %q", fields[4])
	}
	crc, err2 = strconv.ParseUint(crcStr, 16, 64)
	if err2 != nil {
		return malformed("bad section checksum %q", crcStr)
	}
	return name, length, pad, crc, nil
}
