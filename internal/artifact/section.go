package artifact

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"strconv"
	"strings"
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
// "checksum-mismatch" exactly as Open reports it, and the section CRCs second;
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

// AppendSection appends a framed binary section to a payload under
// construction and returns the extended payload. name must be non-empty
// and free of spaces and control characters. The result is meant to be
// sealed (artifact.Seal) once all sections are appended.
func AppendSection(payload []byte, name string, data []byte) []byte {
	return appendSection(payload, name, data, Checksum(data))
}

// appendSection is AppendSection given crc, the checksum of data.
func appendSection(payload []byte, name string, data []byte, crc uint64) []byte {
	if name == "" || strings.ContainsAny(name, " \t\n\r") {
		panic(fmt.Sprintf("artifact: invalid section name %q", name))
	}
	if len(payload) > 0 && payload[len(payload)-1] != '\n' {
		payload = append(payload, '\n')
	}
	// The pad digit is always exactly one byte (0–7), so the header's
	// length does not depend on the pad value and the alignment equation
	// has a fixed point: compute the header once with pad=0, then set the
	// real pad from the resulting data offset.
	header := fmt.Sprintf("%sv%d name=%s len=%d pad=0 crc64=%016x\n",
		SectionPrefix, SectionVersion, name, len(data), crc)
	pad := (sectionAlign - (len(payload)+len(header))%sectionAlign) % sectionAlign
	if pad != 0 {
		header = strings.Replace(header, " pad=0 ", fmt.Sprintf(" pad=%d ", pad), 1)
	}
	payload = append(payload, header...)
	for i := 0; i < pad; i++ {
		payload = append(payload, 0)
	}
	payload = append(payload, data...)
	payload = append(payload, '\n')
	return payload
}

// sectionBound is more than the framing AppendSection puts around a
// section's name and data: a separating newline, the header's fixed text
// with a 19-digit length and 16 hex digits, seven bytes of padding and the
// closing newline come to 87 bytes.
const sectionBound = 96

// SealSections returns primary followed by the sections, each framed as
// AppendSection frames it, and the integrity trailer: what Seal makes of
// the payload AppendSection builds, in one buffer sized from the section
// lengths and filled once, with each section's data summed at most once.
func SealSections(primary []byte, sections []Section) []byte {
	n := len(primary) + trailerBound
	for _, sec := range sections {
		n += len(sec.Name) + len(sec.Data) + sectionBound
	}
	out := append(make([]byte, 0, n), primary...)
	// crc is the checksum of out[:summed].
	crc, summed := Checksum(primary), len(out)
	for _, sec := range sections {
		if sec.CRC == 0 {
			sec.CRC = Checksum(sec.Data)
		}
		out = appendSection(out, sec.Name, sec.Data, sec.CRC)
		start := len(out) - len(sec.Data) - 1
		crc = crcCombine(crc64.Update(crc, crcTable, out[summed:start]), sec.CRC, len(sec.Data))
		summed = start + len(sec.Data)
	}
	return appendTrailer(out, crc64.Update(crc, crcTable, out[summed:]))
}

// sectionMark locates the first section header: a header line always
// follows a newline (or starts the payload). The primary document cannot
// contain the mark — a raw newline inside a JSON string is invalid JSON —
// and any later occurrence inside opaque section data is never searched
// for, because parsing after the first header is length-directed.
var sectionMark = []byte("\n" + SectionPrefix)

// OpenSections is OpenVersion plus the split of the payload into its
// primary document and binary sections, in one pass over data: each
// section's data is summed once and the sums are folded into the payload's
// checksum. A file is refused for the reason Open followed by a walk of the
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
	// got is the checksum of payload[:p]; bad reports the first section
	// whose data does not sum to its header's CRC.
	got := Checksum(primary)
	var bad, frameErr error
	for p < len(payload) {
		sec, start, err := frameSection(payload, p)
		if err != nil {
			frameErr = err
			break
		}
		sum := Checksum(sec.Data)
		got = crcCombine(crc64.Update(got, crcTable, payload[p:start]), sum, len(sec.Data))
		if sum != sec.CRC && bad == nil {
			bad = Corruptf("section-checksum-mismatch",
				"section %q data crc64 %016x, header says %016x (bit rot?)", sec.Name, sum, sec.CRC)
		}
		if p = start + len(sec.Data); payload[p] != '\n' {
			frameErr = Corruptf("section-malformed", "section %q data not newline-terminated", sec.Name)
			break
		}
		got = crc64.Update(got, crcTable, payload[p:p+1])
		p++
		sections = append(sections, sec)
	}
	if frameErr != nil {
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
		return primary, sections, fmt.Sprintf("%016x", want), nil
	}
	return nil, nil, "", err
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
