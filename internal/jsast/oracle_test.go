package jsast_test

import (
	"fmt"
	"testing"

	"adwars/internal/artifact"
	"adwars/internal/jsast"
	"adwars/internal/scriptcorpus"
)

// TestTokenizeMatchesReference holds the lexer to the parent commit's on
// every oracle script, every eval payload inside them included (a payload
// is lexed on its own when it is unpacked).
func TestTokenizeMatchesReference(t *testing.T) {
	scripts := scriptcorpus.Scripts(t)
	tokens, refused := 0, 0
	var check func(src string)
	check = func(src string) {
		want, wantErr := jsast.ReferenceTokenize(src)
		if err := jsast.MatchesReference(src); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		if wantErr != nil {
			refused++
		}
		tokens += len(want)
		for _, tok := range want {
			// Decoded string literals are where eval payloads live.
			if tok.Kind == jsast.TokString && len(tok.Text) > 8 {
				check(tok.Text)
			}
		}
	}
	for _, src := range scripts {
		check(src)
	}
	if tokens < 100_000 || refused < 5 {
		t.Fatalf("%d tokens compared, %d inputs refused by both; oracle too weak", tokens, refused)
	}
}

// TestParseAndUnpackPinned holds the parser and the unpacker to the parent
// commit: the canonical print of every oracle script's unpacked tree, its
// node count and payload count — or its error text — folded into the
// checksum commit d38b6c6 computed, before nodes came from chunks, tokens
// were read through pointers and Unpack learnt to skip eval-free trees.
func TestParseAndUnpackPinned(t *testing.T) {
	scripts := scriptcorpus.Scripts(t)
	var buf []byte
	nodes, unpacked := 0, 0
	for _, src := range scripts {
		prog, n, err := jsast.ParseAndUnpack(src)
		if err != nil {
			buf = append(buf, err.Error()...)
			buf = append(buf, 0xff)
			continue
		}
		count := jsast.Count(prog)
		nodes += count
		unpacked += n
		buf = append(buf, jsast.Print(prog)...)
		buf = append(buf, fmt.Sprintf("\x00%d/%d\x00", count, n)...)
	}
	if nodes < 100_000 || unpacked < 50 {
		t.Fatalf("%d nodes, %d payloads unpacked; digest too weak", nodes, unpacked)
	}
	const want = uint64(0x6f0a013ec890531a)
	if got := artifact.Checksum(buf); got != want {
		t.Errorf("%d scripts (%d nodes, %d payloads) checksum to %#016x, commit d38b6c6 computed %#016x",
			len(scripts), nodes, unpacked, got, want)
	}
}
