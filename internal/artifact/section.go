package artifact

import (
	"bytes"
	"fmt"
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
// primary and every section, so a bit flip anywhere is caught by Open
// before SplitSections ever runs; the per-section CRCs additionally
// localize damage (and catch it when the caller skips sealing).
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
// aliases the payload it was split from (zero-copy, mmap-preserved) and
// must not be modified. CRC is Checksum(Data) as SplitSections verified it,
// for a format owner whose own integrity value is defined over the same
// bytes; the writers ignore it and sum Data themselves.
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
		SectionPrefix, SectionVersion, name, len(data), Checksum(data))
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
// lengths and filled once.
func SealSections(primary []byte, sections []Section) []byte {
	n := len(primary) + trailerBound
	for _, sec := range sections {
		n += len(sec.Name) + len(sec.Data) + sectionBound
	}
	out := append(make([]byte, 0, n), primary...)
	for _, sec := range sections {
		out = AppendSection(out, sec.Name, sec.Data)
	}
	return appendTrailer(out)
}

// sectionMark locates the first section header: a header line always
// follows a newline (or starts the payload). The primary document cannot
// contain the mark — a raw newline inside a JSON string is invalid JSON —
// and any later occurrence inside opaque section data is never searched
// for, because parsing after the first header is length-directed.
var sectionMark = []byte("\n" + SectionPrefix)

// SplitSections splits an opened artifact payload into the primary
// document and its binary sections, verifying each section's frame and
// checksum. Payloads with no sections return (payload, nil, nil).
// Callers pass the payload returned by Open, so the whole-file CRC has
// already been verified; section errors wrap ErrCorrupt all the same for
// callers that assemble payloads by other means.
func SplitSections(payload []byte) (primary []byte, sections []Section, err error) {
	var p int
	if bytes.HasPrefix(payload, []byte(SectionPrefix)) {
		p = 0
	} else if i := bytes.Index(payload, sectionMark); i >= 0 {
		p = i + 1
	} else {
		return payload, nil, nil
	}
	primary = payload[:p]
	for p < len(payload) {
		if !bytes.HasPrefix(payload[p:], []byte(SectionPrefix)) {
			return nil, nil, Corruptf("section-malformed",
				"expected section header at payload offset %d", p)
		}
		nl := bytes.IndexByte(payload[p:], '\n')
		if nl < 0 {
			return nil, nil, Corruptf("section-malformed",
				"unterminated section header at payload offset %d", p)
		}
		name, length, pad, crc, perr := parseSectionHeader(string(payload[p : p+nl]))
		if perr != nil {
			return nil, nil, perr
		}
		start := p + nl + 1 + pad
		// Compared this way round, a length near the top of int cannot wrap.
		if length > len(payload)-start-1 {
			return nil, nil, Corruptf("section-length-mismatch",
				"section %q frames %d data bytes, payload has %d left (torn write?)",
				name, length, len(payload)-start)
		}
		for _, b := range payload[p+nl+1 : start] {
			if b != 0 {
				return nil, nil, Corruptf("section-malformed",
					"section %q has non-zero padding", name)
			}
		}
		end := start + length
		data := payload[start:end]
		if got := Checksum(data); got != crc {
			return nil, nil, Corruptf("section-checksum-mismatch",
				"section %q data crc64 %016x, header says %016x (bit rot?)", name, got, crc)
		}
		if payload[end] != '\n' {
			return nil, nil, Corruptf("section-malformed",
				"section %q data not newline-terminated", name)
		}
		sections = append(sections, Section{Name: name, Data: data, CRC: crc})
		p = end + 1
	}
	return primary, sections, nil
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
