package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range []string{
		"{\"hello\":\"world\"}\n",
		"{\"no-trailing-newline\":true}",
		"",
		"line one\nline two\n",
	} {
		sealed := Seal([]byte(payload))
		got, err := open(sealed)
		if err != nil {
			t.Fatalf("payload %q: %v", payload, err)
		}
		if string(got) != payload {
			t.Fatalf("payload %q round-tripped to %q", payload, got)
		}
	}
}

// TestOpenRefusesUnsealed: input without a trailer — a file from before
// sealing, a file whose trailer was cut off, nothing at all — is
// missing-trailer from OpenVersion and Version alike.
func TestOpenRefusesUnsealed(t *testing.T) {
	sealed := Seal([]byte("{\"a\":1}\n"))
	for name, data := range map[string][]byte{
		"never sealed":    []byte("{\"format\":\"adwars-model\",\"version\":1}\n"),
		"trailer cut":     sealed[:bytes.LastIndex(sealed, []byte(TrailerPrefix))],
		"empty":           nil,
		"prefix mid-line": []byte("x " + TrailerPrefix + "v1 len=0 crc64=0000000000000000\n"),
	} {
		payload, err := open(data)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Reason != "missing-trailer" || payload != nil {
			t.Errorf("%s: OpenVersion = (%q, %v), want missing-trailer", name, payload, err)
		}
		if p, v, err := OpenVersion(data); !errors.As(err, &ce) || ce.Reason != "missing-trailer" || p != nil || v != "" {
			t.Errorf("%s: OpenVersion = (%q, %q, %v), want missing-trailer", name, p, v, err)
		}
		if v, err := Version(data); !errors.As(err, &ce) || ce.Reason != "missing-trailer" || v != "" {
			t.Errorf("%s: Version = (%q, %v), want missing-trailer", name, v, err)
		}
	}
}

func TestOpenDetectsPayloadBitFlip(t *testing.T) {
	sealed := Seal([]byte(`{"field":"value","n":12345}` + "\n"))
	for _, i := range []int{0, 5, 12, 20} {
		damaged := bytes.Clone(sealed)
		damaged[i] ^= 0x20
		_, err := open(damaged)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: err = %v, want ErrCorrupt", i, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Reason != "checksum-mismatch" {
			t.Errorf("flip at %d: err = %v, want checksum-mismatch", i, err)
		}
	}
}

func TestOpenDetectsTrailerDamage(t *testing.T) {
	sealed := string(Seal([]byte("payload\n")))
	// Flip a checksum hex digit.
	i := strings.LastIndex(sealed, "crc64=") + len("crc64=")
	flipped := sealed[:i] + flipHex(sealed[i]) + sealed[i+1:]
	if _, err := open([]byte(flipped)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped crc digit: err = %v, want ErrCorrupt", err)
	}
	// Mangle the length field.
	mangled := strings.Replace(sealed, "len=", "len=9", 1)
	if _, err := open([]byte(mangled)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mangled length: err = %v, want ErrCorrupt", err)
	}
	// Unsupported trailer version.
	future := strings.Replace(sealed, " v1 ", " v99 ", 1)
	if _, err := open([]byte(future)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("future trailer version: err = %v, want ErrCorrupt", err)
	}
	// Garbage after the prefix.
	garbage := []byte("payload\n" + TrailerPrefix + "what even is this\n")
	if _, err := open(garbage); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage trailer: err = %v, want ErrCorrupt", err)
	}
}

func TestOpenDetectsTornPayload(t *testing.T) {
	payload := []byte(`{"a":1,"b":2,"c":3}` + "\n")
	sealed := Seal(payload)
	// Remove bytes from the middle so the trailer survives but frames the
	// wrong length — the shape of a torn write that lost a block.
	torn := append(bytes.Clone(sealed[:5]), sealed[10:]...)
	_, err := open(torn)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Reason != "length-mismatch" {
		t.Fatalf("torn payload: err = %v, want length-mismatch", err)
	}
}

func TestCorruptfWrapsSentinel(t *testing.T) {
	err := Corruptf("missing-trailer", "version %d requires sealing", 2)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Corruptf result does not wrap ErrCorrupt: %v", err)
	}
	if want := "version 2 requires sealing"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to contain %q", err, want)
	}
}

func TestSealIsDeterministic(t *testing.T) {
	p := []byte(fmt.Sprintf("{\"n\":%d}\n", 42))
	if !bytes.Equal(Seal(p), Seal(p)) {
		t.Fatal("Seal is not deterministic")
	}
}

// flipHex returns a different valid hex digit.
func flipHex(c byte) string {
	if c == 'f' {
		return "0"
	}
	return "f"
}

// TestVersionIsPayloadChecksum: the version of a sealed artifact is read off
// the trailer OpenVersion verified, and is still the payload's CRC64 — the same for
// the sealed file and one sealed again; a corrupt artifact has none.
func TestVersionIsPayloadChecksum(t *testing.T) {
	for _, payload := range []string{"{\"a\":1}\n", "no trailing newline", ""} {
		want := fmt.Sprintf("%016x", Checksum([]byte(payload)))
		sealed := Seal([]byte(payload))
		opened, err := open(sealed)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			"sealed":   sealed,
			"resealed": Seal(opened),
		} {
			got, err := Version(data)
			if err != nil || got != want {
				t.Errorf("payload %q %s: Version = %q, %v; Checksum(payload) is %s", payload, name, got, err, want)
			}
			p, v, err := OpenVersion(data)
			if err != nil || v != want || string(p) != payload {
				t.Errorf("payload %q %s: OpenVersion = (%q, %q, %v)", payload, name, p, v, err)
			}
		}
	}
	sealed := Seal([]byte("{\"a\":1}\n"))
	sealed[2] ^= 0x20
	if v, err := Version(sealed); !errors.Is(err, ErrCorrupt) || v != "" {
		t.Errorf("corrupt artifact: Version = %q, %v; want ErrCorrupt", v, err)
	}
}

// TestSealSections: one sized buffer holds exactly what appendSection and
// Seal build step by step, and the size was enough.
func TestSealSections(t *testing.T) {
	primary := []byte("{\"doc\":true}\n")
	sections := []Section{
		{Name: "automaton.0", Data: bytes.Repeat([]byte{0xAB}, 1001)},
		{Name: "empty", Data: nil},
		{Name: strings.Repeat("n", 200), Data: []byte("#adwars-section looks like a header\n")},
	}
	for _, secs := range [][]Section{sections, nil} {
		want := bytes.Clone(primary)
		size := len(primary) + trailerBound
		for _, sec := range secs {
			want = appendSection(want, sec.Name, sec.Data, Checksum(sec.Data))
			size += len(sec.Name) + len(sec.Data) + sectionBound
		}
		got := SealSections(primary, secs)
		if !bytes.Equal(got, Seal(want)) {
			t.Fatalf("%d sections: SealSections differs from appendSection + Seal", len(secs))
		}
		if cap(got) != size {
			t.Errorf("%d sections: buffer regrown: cap %d, sized %d", len(secs), cap(got), size)
		}
		// What comes back carries the checksum that was verified.
		_, split, _, err := OpenSections(got)
		if err != nil || len(split) != len(secs) {
			t.Fatalf("%d sections: split into %d (err %v)", len(secs), len(split), err)
		}
		for i, sec := range split {
			if sec.Name != secs[i].Name || !bytes.Equal(sec.Data, secs[i].Data) || sec.CRC != Checksum(secs[i].Data) {
				t.Errorf("section %d came back as %q, %d bytes, crc %016x", i, sec.Name, len(sec.Data), sec.CRC)
			}
		}
	}
}

// TestOpenSectionsRefusesWrappingLength: a header may claim any length an
// int holds; one that would wrap the end offset is a length mismatch like
// any other, not an index out of range.
func TestOpenSectionsRefusesWrappingLength(t *testing.T) {
	for _, length := range []string{"9223372036854775807", "9223372036854775700", "4"} {
		payload := []byte("{}\n" + SectionPrefix + "v1 name=x len=" + length + " pad=0 crc64=0000000000000000\nabc\n")
		_, _, _, err := OpenSections(Seal(payload))
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Reason != "section-length-mismatch" {
			t.Errorf("len=%s: err = %v, want section-length-mismatch", length, err)
		}
	}
}

// TestSealSectionsTrustsGivenCRC: a CRC the writer hands SealSections is
// written into the header and folded into the trailer unchecked — which is
// safe only because a wrong one yields a file no reader accepts. The file
// sealed with the right CRC given is the one sealed with none.
func TestSealSectionsTrustsGivenCRC(t *testing.T) {
	primary := []byte("{\"doc\":true}\n")
	data := bytes.Repeat([]byte("||ads.example^\n"), 100)
	right := SealSections(primary, []Section{{Name: "rules.0", Data: data}})
	if given := SealSections(primary, []Section{{Name: "rules.0", Data: data, CRC: Checksum(data)}}); !bytes.Equal(given, right) {
		t.Fatal("sealing with the right CRC given differs from sealing with none")
	}
	for _, crc := range []uint64{Checksum(data) ^ 1, Checksum(data[1:]), 0xdeadbeef} {
		sealed := SealSections(primary, []Section{
			{Name: "automaton.0", Data: []byte("automaton bytes")},
			{Name: "rules.0", Data: data, CRC: crc},
		})
		var ce *CorruptError
		if _, secs, v, err := OpenSections(sealed); !errors.As(err, &ce) || ce.Reason != "checksum-mismatch" || secs != nil || v != "" {
			t.Errorf("crc %016x: OpenSections = (%d sections, %q, %v), want checksum-mismatch", crc, len(secs), v, err)
		}
		if p, err := open(sealed); !errors.As(err, &ce) || ce.Reason != "checksum-mismatch" || p != nil {
			t.Errorf("crc %016x: OpenVersion = %v, want checksum-mismatch", crc, err)
		}
	}
}

// TestCombine: crcCombine(Checksum(A), Checksum(B), len(B)) is
// Checksum(A‖B) for random splits of random data, with A or B empty and
// with B past a megabyte, so every one of the zero operators a length that
// size needs is exercised.
func TestCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 3<<20)
	rng.Read(data)
	cuts := [][2]int{{0, 0}, {0, 1}, {1, 1}, {0, 1 << 20}, {1 << 20, 1 << 20}, {5, len(data)}, {0, len(data)}, {len(data), len(data)}}
	for i := 0; i < 40; i++ {
		end := rng.Intn(len(data) + 1)
		cuts = append(cuts, [2]int{rng.Intn(end + 1), end})
	}
	for _, c := range cuts {
		a, b := data[:c[0]], data[c[0]:c[1]]
		if got, want := crcCombine(Checksum(a), Checksum(b), len(b)), Checksum(data[:c[1]]); got != want {
			t.Errorf("len(A) %d, len(B) %d: combined %016x, Checksum(A‖B) %016x", len(a), len(b), got, want)
		}
	}
}

// TestWriteFileAtomic: the file appears whole under the mode asked for, and
// a write that cannot complete leaves nothing behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	if err := WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "two" {
		t.Fatalf("file holds %q, want the second write", got)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v (err %v), want 0644", st.Mode().Perm(), err)
	}
	// A non-empty directory in the way: the rename fails.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("three"), 0o644); err == nil {
		t.Fatal("writing over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "snap.json" && e.Name() != "blocked" {
			t.Errorf("failed write left %q behind", e.Name())
		}
	}
}

// benchSections is a payload the size of the benchmark's 70 k-rule lists
// snapshot, ≈ 4.6 MB in two sections: 2 MB of rule text, whose CRC the writer
// holds, and the binary region it does not.
func benchSections() (primary []byte, sections []Section) {
	rng := rand.New(rand.NewSource(1))
	text := bytes.Repeat([]byte("||ads.example^$third-party\n"), 2<<20/27)
	region := make([]byte, 2600<<10)
	rng.Read(region)
	return []byte(`{"format":"adwars-lists","version":7}` + "\n"), []Section{
		{Name: "rules.0", Data: text, CRC: Checksum(text)},
		{Name: "automaton.0", Data: region},
	}
}

// BenchmarkSealSections measures sealing that payload: the binary regions
// summed once, the rule text not at all, the trailer derived.
func BenchmarkSealSections(b *testing.B) {
	primary, sections := benchSections()
	b.SetBytes(int64(len(SealSections(primary, sections))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SealSections(primary, sections)
	}
}

// BenchmarkOpenSections measures opening it: every section framed and
// summed once, the trailer checked against the folded sums.
func BenchmarkOpenSections(b *testing.B) {
	file := SealSections(benchSections())
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := OpenSections(file); err != nil {
			b.Fatal(err)
		}
	}
}

// open is OpenVersion without the version.
func open(data []byte) ([]byte, error) {
	payload, _, err := OpenVersion(data)
	return payload, err
}
