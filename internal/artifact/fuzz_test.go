package artifact

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// knownReasons is the closed set of CorruptError reason tags; the fuzz
// target asserts corruption never reports outside it, so downstream
// consumers (the serve reload path, the control plane) can switch on the
// tag safely.
var knownReasons = map[string]bool{
	"trailer-malformed": true,
	"length-mismatch":   true,
	"checksum-mismatch": true,
	"missing-trailer":   true,
}

// FuzzParseTrailer drives Open (and through it parseTrailer) with
// arbitrary bytes, seeded with the corruption matrix the unit tests
// enumerate: valid sealed artifacts, payload bit flips, trailer digit
// flips, mangled length fields, future trailer versions, garbage after
// the prefix, torn payloads, and unsealed files. The invariants:
// Open never panics, every failure is a structured CorruptError wrapping
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
		payload, err := Open(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open error does not wrap ErrCorrupt: %v", err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Open error is not a CorruptError: %v", err)
			}
			if !knownReasons[ce.Reason] {
				t.Fatalf("unknown corruption reason %q", ce.Reason)
			}
			if _, verr := Version(data); verr == nil {
				t.Fatal("Version succeeded on an artifact Open rejected")
			}
			return
		}
		// A clean open must survive the seal→open round trip bit-for-bit,
		// and version identically before and after sealing.
		resealed := Seal(payload)
		p2, err2 := Open(resealed)
		if err2 != nil {
			t.Fatalf("reseal of clean payload failed: %v", err2)
		}
		if !bytes.Equal(p2, payload) {
			t.Fatalf("reseal round trip mutated payload: %q != %q", p2, payload)
		}
		v1, err := Version(data)
		if err != nil {
			t.Fatalf("Version failed on an artifact Open accepted: %v", err)
		}
		v2, err := Version(resealed)
		if err != nil || v1 != v2 {
			t.Fatalf("version changed across reseal: %q → %q (err %v)", v1, v2, err)
		}
	})
}
