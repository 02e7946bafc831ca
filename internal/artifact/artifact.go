// Package artifact provides tamper/corruption-evident framing for the
// snapshot files handed between the offline pipelines and the serving
// layer. A sealed artifact is the payload bytes followed by a single
// trailer line carrying the payload length and a CRC64 of the payload:
//
//	<payload bytes, typically one JSON document ending in '\n'>
//	#adwars-integrity v1 len=1234 crc64=75d1b6a6e1a2b3c4
//
// The trailer is length-framed (a torn write that loses payload bytes
// breaks the length check even when the tail happens to survive) and
// checksummed (a bit flip anywhere in the payload breaks the CRC). The
// line starts with '#', which can never begin a JSON document, so a reader
// that takes the first line and ignores the rest still finds the payload.
// An artifact is sealed or it is refused: OpenVersion reports input without a
// trailer as corrupt ("missing-trailer"), so a file whose trailer was cut
// off is caught here and no format owner checks for it again.
// A payload with binary sections (section.go) opens with OpenSections,
// which verifies the same trailer in the pass that frames and sums them.
package artifact

import (
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// TrailerPrefix starts every integrity trailer line.
const TrailerPrefix = "#adwars-integrity "

// TrailerVersion is the current trailer format version.
const TrailerVersion = 1

// ErrCorrupt is the sentinel every corruption failure wraps: callers use
// errors.Is(err, ErrCorrupt) to distinguish "this artifact is damaged"
// from "this is not an artifact of the expected format at all".
var ErrCorrupt = errors.New("artifact: corrupt")

// CorruptError is the structured corruption report: what check failed and
// the observed vs expected values. It wraps ErrCorrupt.
type CorruptError struct {
	// Reason is a short machine-friendly kind: "trailer-malformed",
	// "length-mismatch", "checksum-mismatch", "missing-trailer".
	Reason string
	// Detail is the human-readable specifics.
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("artifact: corrupt (%s): %s", e.Reason, e.Detail)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Corruptf builds a CorruptError; format owners use it to report
// corruption conditions the trailer itself cannot see (e.g. a section the
// schema requires that the payload does not carry).
func Corruptf(reason, format string, args ...any) error {
	return &CorruptError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// crcTable is the ECMA polynomial table shared by Seal and OpenVersion.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksum returns the CRC64 (ECMA) of payload — the value carried in the
// trailer.
func Checksum(payload []byte) uint64 { return crc64.Checksum(payload, crcTable) }

// crcZeros[k] appends 2^k zero bytes to a CRC-64 register: x^(8·2^k) mod
// the ECMA polynomial, in the bit-reflected form crc64 keeps (bit 63 is x^0).
// Forty-eight of them reach any length below 2^48 bytes.
var crcZeros = func() (ops [48]uint64) {
	ops[0] = 1 << (63 - 8)
	for k := 1; k < len(ops); k++ {
		ops[k] = crcMulMod(ops[k-1], ops[k-1])
	}
	return ops
}()

// crcMulMod multiplies two polynomials modulo the ECMA polynomial, both in
// crc64's reflected form.
func crcMulMod(a, b uint64) (p uint64) {
	for m := uint64(1) << 63; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				break
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crc64.ECMA
		} else {
			b >>= 1
		}
	}
	return p
}

// crcCombine returns Checksum(A‖B) from a = Checksum(A), b = Checksum(B)
// and n = len(B), reading neither: a advanced over n zero bytes, b added in.
func crcCombine(a, b uint64, n int) uint64 {
	for k := 0; n > 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			a = crcMulMod(crcZeros[k], a)
		}
	}
	return a ^ b
}

// trailerBound is more than any trailer line takes: the prefix, "v1", a
// 19-digit length, 16 hex digits and the field names come to 70 bytes.
const trailerBound = 96

// Seal returns a copy of payload with an integrity trailer line appended.
// The payload should end with '\n' (JSON encoders do); if it does not, a
// newline is inserted so the trailer stays on its own line.
func Seal(payload []byte) []byte {
	return appendTrailer(append(make([]byte, 0, len(payload)+trailerBound), payload...), Checksum(payload))
}

// appendTrailer is Seal in place, given crc, the payload's checksum: the
// trailer goes behind payload in payload's own backing array when that has
// the room.
func appendTrailer(payload []byte, crc uint64) []byte {
	n := len(payload)
	if n > 0 && payload[n-1] != '\n' {
		payload = append(payload, '\n')
	}
	return fmt.Appendf(payload, "%sv%d len=%d crc64=%016x\n", TrailerPrefix, TrailerVersion, n, crc)
}

// OpenVersion splits data into payload and trailer and verifies the
// trailer. It returns the payload of a sealed artifact that verifies and the
// artifact's content version — the trailer's CRC, once the payload has
// verified against it — and a CorruptError when the trailer is missing,
// malformed, or fails its length or checksum check.
func OpenVersion(data []byte) (payload []byte, version string, err error) {
	payload, want, err := trailerFrame(data)
	if err != nil {
		return nil, "", err
	}
	if got := Checksum(payload); got != want {
		return nil, "", payloadMismatch(got, want)
	}
	return payload, fmt.Sprintf("%016x", want), nil
}

// trailerFrame is everything OpenVersion checks but the checksum: that data
// ends in a well-formed trailer that frames the bytes before it. It returns
// the payload so framed and the CRC the trailer states for it.
func trailerFrame(data []byte) (payload []byte, crc uint64, err error) {
	line, start := lastLine(data)
	if !strings.HasPrefix(line, TrailerPrefix) {
		return nil, 0, &CorruptError{
			Reason: "missing-trailer",
			Detail: "no integrity trailer (unsealed or truncated?)",
		}
	}
	wantLen, crc, err := parseTrailer(line)
	if err != nil {
		return nil, 0, err
	}
	payload = data[:start]
	// The trailer states the exact payload length Seal saw; Seal only adds
	// a newline when the payload lacked one, so a sealed file's payload
	// region is either exactly wantLen bytes or wantLen plus that newline.
	switch {
	case len(payload) == wantLen:
	case len(payload) == wantLen+1 && payload[wantLen] == '\n':
		payload = payload[:wantLen]
	default:
		return nil, 0, &CorruptError{
			Reason: "length-mismatch",
			Detail: fmt.Sprintf("trailer framed %d payload bytes, found %d (torn write?)", wantLen, len(payload)),
		}
	}
	return payload, crc, nil
}

func payloadMismatch(got, want uint64) error {
	return &CorruptError{
		Reason: "checksum-mismatch",
		Detail: fmt.Sprintf("payload crc64 %016x, trailer says %016x (bit rot?)", got, want),
	}
}

// Version derives the content version of an artifact: the CRC64 of its
// payload rendered as 16 hex digits, read off the verified trailer, so the
// payload is summed once. The trailer is excluded, so re-sealing an
// unchanged payload never changes its version. The serving fleet and the
// snapshot control plane both use this as the snapshot identity they
// compare during rollouts. Corrupt and unsealed artifacts have no version.
func Version(data []byte) (string, error) {
	_, version, err := OpenVersion(data)
	return version, err
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory plus rename, so concurrent readers (hot-reloading replicas,
// portfile-polling scripts) never observe a torn file.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), perm); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// lastLine returns the final non-empty line of data and the offset where
// it starts (i.e. everything before it).
func lastLine(data []byte) (line string, start int) {
	end := len(data)
	for end > 0 && data[end-1] == '\n' {
		end--
	}
	start = end
	for start > 0 && data[start-1] != '\n' {
		start--
	}
	return string(data[start:end]), start
}

// parseTrailer validates one trailer line of the form
// "#adwars-integrity v1 len=N crc64=HEX".
func parseTrailer(line string) (length int, crc uint64, err error) {
	fields := strings.Fields(strings.TrimPrefix(line, TrailerPrefix))
	if len(fields) != 3 {
		return 0, 0, &CorruptError{Reason: "trailer-malformed",
			Detail: fmt.Sprintf("want 3 trailer fields, got %d in %q", len(fields), line)}
	}
	ver, ok := strings.CutPrefix(fields[0], "v")
	if !ok {
		return 0, 0, &CorruptError{Reason: "trailer-malformed",
			Detail: fmt.Sprintf("bad trailer version field %q", fields[0])}
	}
	v, err2 := strconv.Atoi(ver)
	if err2 != nil || v < 1 || v > TrailerVersion {
		return 0, 0, &CorruptError{Reason: "trailer-malformed",
			Detail: fmt.Sprintf("unsupported trailer version %q (supported: v%d)", fields[0], TrailerVersion)}
	}
	lenStr, ok := strings.CutPrefix(fields[1], "len=")
	if !ok {
		return 0, 0, &CorruptError{Reason: "trailer-malformed",
			Detail: fmt.Sprintf("bad trailer length field %q", fields[1])}
	}
	length, err2 = strconv.Atoi(lenStr)
	if err2 != nil || length < 0 {
		return 0, 0, &CorruptError{Reason: "trailer-malformed",
			Detail: fmt.Sprintf("bad trailer length %q", lenStr)}
	}
	crcStr, ok := strings.CutPrefix(fields[2], "crc64=")
	if !ok {
		return 0, 0, &CorruptError{Reason: "trailer-malformed",
			Detail: fmt.Sprintf("bad trailer checksum field %q", fields[2])}
	}
	crc, err2 = strconv.ParseUint(crcStr, 16, 64)
	if err2 != nil {
		return 0, 0, &CorruptError{Reason: "trailer-malformed",
			Detail: fmt.Sprintf("bad trailer checksum %q", crcStr)}
	}
	return length, crc, nil
}
