package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// knownReasons is the closed set of CorruptError reason tags: the four the
// trailer reports and the three a section frame does. The fuzz targets
// assert corruption never reports outside it, so downstream consumers (the
// serve reload path, the control plane) can switch on the tag safely.
var knownReasons = map[string]bool{
	"trailer-malformed":         true,
	"length-mismatch":           true,
	"checksum-mismatch":         true,
	"missing-trailer":           true,
	"section-malformed":         true,
	"section-length-mismatch":   true,
	"section-checksum-mismatch": true,
}

// FuzzParseTrailer drives OpenVersion (and through it parseTrailer) with
// arbitrary bytes, seeded with the corruption matrix the unit tests
// enumerate: valid sealed artifacts, payload bit flips, trailer digit
// flips, mangled length fields, future trailer versions, garbage after
// the prefix, torn payloads, and unsealed files. The invariants:
// OpenVersion never panics, every failure is a structured CorruptError wrapping
// ErrCorrupt with a known reason tag, a clean sealed open re-seals to the
// identical artifact, and Version agrees with the payload checksum.
func FuzzParseTrailer(f *testing.F) {
	good := Seal([]byte(`{"field":"value","n":12345}` + "\n"))
	f.Add(good)
	f.Add(Seal(nil))
	f.Add(Seal([]byte("no trailing newline")))

	// Payload bit flips (checksum-mismatch).
	for _, i := range []int{0, 5, 12, 20} {
		damaged := bytes.Clone(good)
		damaged[i] ^= 0x20
		f.Add(damaged)
	}
	// Trailer damage: flipped crc digit, mangled length, future version,
	// garbage after the prefix (trailer-malformed / checksum-mismatch).
	s := string(good)
	i := strings.LastIndex(s, "crc64=") + len("crc64=")
	f.Add([]byte(s[:i] + "f" + s[i+1:]))
	f.Add([]byte(strings.Replace(s, "len=", "len=9", 1)))
	f.Add([]byte(strings.Replace(s, " v1 ", " v99 ", 1)))
	f.Add([]byte("payload\n" + TrailerPrefix + "what even is this\n"))
	f.Add([]byte(TrailerPrefix + "\n"))
	f.Add([]byte(TrailerPrefix + "v1 len=0 crc64=zzzz\n"))
	f.Add([]byte(TrailerPrefix + "v1 len=-5 crc64=0000000000000000\n"))
	// Torn payload: bytes missing from the middle (length-mismatch).
	f.Add(append(bytes.Clone(good[:5]), good[10:]...))
	// Unsealed input is refused (missing-trailer).
	f.Add([]byte("{\"format\":\"adwars-model\",\"version\":1}\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := open(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenVersion error does not wrap ErrCorrupt: %v", err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("OpenVersion error is not a CorruptError: %v", err)
			}
			if !knownReasons[ce.Reason] {
				t.Fatalf("unknown corruption reason %q", ce.Reason)
			}
			if _, verr := Version(data); verr == nil {
				t.Fatal("Version succeeded on an artifact OpenVersion rejected")
			}
			return
		}
		// A clean open must survive the seal→open round trip bit-for-bit,
		// and version identically before and after sealing.
		resealed := Seal(payload)
		p2, err2 := open(resealed)
		if err2 != nil {
			t.Fatalf("reseal of clean payload failed: %v", err2)
		}
		if !bytes.Equal(p2, payload) {
			t.Fatalf("reseal round trip mutated payload: %q != %q", p2, payload)
		}
		v1, err := Version(data)
		if err != nil {
			t.Fatalf("Version failed on an artifact OpenVersion accepted: %v", err)
		}
		v2, err := Version(resealed)
		if err != nil || v1 != v2 {
			t.Fatalf("version changed across reseal: %q → %q (err %v)", v1, v2, err)
		}
	})
}

// splitTwoPass is the section reader OpenSections replaced, verbatim but for
// its name: run on the payload OpenVersion returns, it re-reads every section byte
// the whole-payload check has just summed. FuzzOpenSections holds the
// one-pass reader to it.
func splitTwoPass(payload []byte) (primary []byte, sections []Section, err error) {
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

// listsSnapshot is a sealed file in the shape of a three-list lists snapshot
// (abp cannot be imported here): the header document, then per list
// rules.<i> — rule lines, sealed with their CRC given, as the lists writer
// seals them — automaton.<i>, and a third section, extra.<i>: binary regions
// that hold newlines, zero bytes and text that reads like a header. Their
// lengths vary, so the headers carry different pads.
func listsSnapshot() (file []byte, sections []Section) {
	rng := rand.New(rand.NewSource(29))
	primary := []byte(`{"format":"adwars-lists","version":7,"label":"fuzz","lists":[{"name":"a","rules":3},{"name":"b","rules":2},{"name":"c","rules":4}]}` + "\n")
	rules := []string{
		"||ads.example^\n/detect.js$script\n@@||ok.example/ads.js\n",
		"example.com###banner\n-ad-300x250.\n",
		"||a.example^\n||b.example^$third-party\n##.ad\n/x*y|\n",
	}
	for i, text := range rules {
		whole := make([]byte, 200+61*i)
		rng.Read(whole)
		copy(whole[17:], "\n"+SectionPrefix+"v1 name=x len=1 pad=0 crc64=0\n")
		extra := make([]byte, 33+i)
		rng.Read(extra)
		extra[3], extra[9] = '\n', 0
		sections = append(sections,
			Section{Name: fmt.Sprintf("rules.%d", i), Data: []byte(text), CRC: Checksum([]byte(text))},
			Section{Name: fmt.Sprintf("automaton.%d", i), Data: whole},
			Section{Name: fmt.Sprintf("extra.%d", i), Data: extra})
	}
	return SealSections(primary, sections), sections
}

// FuzzOpenSections holds OpenSections to OpenVersion followed by the two-pass
// section reader: the same accept or refuse, the same CorruptError reason,
// the same primary, section names, bytes and CRCs, and the same version; and
// what opens seals again into a file that opens to the same sections. Its
// seeds are a lists snapshot and its corruption matrix: a bit flipped in
// the primary, in a header's length, pad and crc digits, in a pad byte, in
// each section's data and in the newline after it (each also resealed), and
// in the trailer's version, length and crc digits; the file cut at every
// section boundary, as a torn write leaves it and resealed, and inside every
// section, resealed; and its sections reordered, duplicated and renamed.
func FuzzOpenSections(f *testing.F) {
	file, secs := listsSnapshot()
	payload, err := open(file)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add(Seal(nil))
	f.Add(Seal([]byte(SectionPrefix + "v1 name=x len=0 pad=0 crc64=0000000000000000\n\n")))
	// flip adds the file with one bit flipped and, when the bit is in the
	// payload, that payload sealed afresh: what the trailer catches, and
	// what only the section frames can.
	flip := func(at int, bit byte) {
		b := bytes.Clone(file)
		b[at] ^= bit
		f.Add(b)
		if at < len(payload) {
			f.Add(Seal(b[:len(payload)]))
		}
	}
	flip(3, 0x01)
	first := bytes.Index(payload, sectionMark) + 1
	for _, sec := range secs {
		h := first + bytes.Index(payload[first:], []byte("name="+sec.Name+" "))
		line := h + bytes.IndexByte(payload[h:], '\n')
		for _, field := range []string{"len=", "pad=", "crc64="} {
			flip(h+bytes.Index(payload[h:line], []byte(field))+len(field), 0x01)
		}
		start := bytes.Index(payload, sec.Data)
		if start > line+1 {
			flip(line+1, 0x40) // a pad byte
		}
		flip(start+len(sec.Data)/2, 0x08)
		flip(start+len(sec.Data), 0x01) // the newline after the data
		f.Add(payload[:start+len(sec.Data)+1])
		f.Add(Seal(payload[:start+len(sec.Data)+1]))
		f.Add(Seal(payload[:h-len(SectionPrefix)]))
		f.Add(Seal(payload[:start+len(sec.Data)/2]))
	}
	trailer := bytes.LastIndex(file, []byte(TrailerPrefix))
	for _, field := range []string{"v", "len=", "crc64="} {
		flip(trailer+bytes.Index(file[trailer:], []byte(" "+field))+1+len(field), 0x01)
	}
	frame := func(order ...Section) {
		p := bytes.Clone(payload[:first])
		for _, s := range order {
			p = appendSection(p, s.Name, s.Data, Checksum(s.Data))
		}
		f.Add(Seal(p))
	}
	frame(secs[2], secs[0], secs[1])
	frame(secs[0], secs[0], secs[1])
	frame(Section{Name: "automaton.9", Data: secs[1].Data}, secs[0])

	f.Fuzz(func(t *testing.T, data []byte) {
		primary, sections, version, err := OpenSections(data)
		var wantPrimary []byte
		var wantSections []Section
		var wantVersion string
		payload, wantErr := open(data)
		if wantErr == nil {
			wantPrimary, wantSections, wantErr = splitTwoPass(payload)
			wantVersion, _ = Version(data)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("OpenSections err %v, two-pass err %v", err, wantErr)
		}
		if err != nil {
			var ce, want *CorruptError
			if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) || !knownReasons[ce.Reason] {
				t.Fatalf("OpenSections error %v is no known CorruptError", err)
			}
			if errors.As(wantErr, &want); ce.Reason != want.Reason {
				t.Fatalf("OpenSections refuses for %q (%v), two-pass for %q (%v)", ce.Reason, err, want.Reason, wantErr)
			}
			if primary != nil || sections != nil || version != "" {
				t.Fatal("a refusal returned a primary, sections or a version")
			}
			return
		}
		if !bytes.Equal(primary, wantPrimary) || version != wantVersion || len(sections) != len(wantSections) {
			t.Fatalf("OpenSections = (%q, %d sections, %q), two-pass (%q, %d sections, %q)",
				primary, len(sections), version, wantPrimary, len(wantSections), wantVersion)
		}
		for i, s := range sections {
			if w := wantSections[i]; s.Name != w.Name || !bytes.Equal(s.Data, w.Data) || s.CRC != w.CRC {
				t.Fatalf("section %d: %q, %d bytes, crc %016x; two-pass %q, %d bytes, crc %016x",
					i, s.Name, len(s.Data), s.CRC, w.Name, len(w.Data), w.CRC)
			}
		}
		p2, s2, _, err := OpenSections(SealSections(primary, sections))
		if err != nil || !bytes.Equal(p2, primary) || len(s2) != len(sections) {
			t.Fatalf("resealed: %d sections, err %v", len(s2), err)
		}
		for i, s := range s2 {
			if s.Name != sections[i].Name || !bytes.Equal(s.Data, sections[i].Data) || s.CRC != sections[i].CRC {
				t.Fatalf("resealed section %d differs", i)
			}
		}
	})
}
