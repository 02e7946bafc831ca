package jsast

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentParseAndUnpack drives ParseAndUnpack from many goroutines
// over a shared corpus (run under -race in CI). The parser keeps all state
// on its own instance, so concurrent parses of distinct — and identical —
// sources must be independent and deterministic; the feature-extraction
// fan-out in internal/features relies on exactly this property.
func TestConcurrentParseAndUnpack(t *testing.T) {
	var srcs []string
	for i := 0; i < 16; i++ {
		srcs = append(srcs, fmt.Sprintf(`
var x%d = %d;
function f%d(a, b) { return a + b * x%d; }
eval("var un%d = 'packed';");
if (document.getElementById('ad_%d')) { f%d(1, 2); }
`, i, i, i, i, i, i, i))
	}
	want := make([]string, len(srcs))
	wantUnpacked := make([]int, len(srcs))
	for i, src := range srcs {
		prog, n, err := ParseAndUnpack(src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = Print(prog)
		wantUnpacked[i] = n
	}

	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, src := range srcs {
					prog, n, err := ParseAndUnpack(src)
					if err != nil {
						errc <- fmt.Errorf("goroutine %d: parse %d: %v", g, i, err)
						return
					}
					if n != wantUnpacked[i] {
						errc <- fmt.Errorf("goroutine %d: src %d unpacked %d payloads, want %d", g, i, n, wantUnpacked[i])
						return
					}
					if got := Print(prog); got != want[i] {
						errc <- fmt.Errorf("goroutine %d: src %d AST diverges under concurrency", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestTreeOutlivesTokenBuffer holds Parse to its pooled scratch. A parse
// borrows its token buffer and its list buffers from a pool and returns
// them, cleared, on every way out; the tree it returns owns everything it
// points at. So a tree kept while a thousand other parses — some refused
// halfway — borrow and return the same buffers on four goroutines reads as
// it did when it was made, and a buffer in the pool never holds a token or
// a node, which would keep the last script it served alive.
func TestTreeOutlivesTokenBuffer(t *testing.T) {
	templates := vendorTemplates()
	var others []string
	for i, src := range templates {
		others = append(others, src, src[:len(src)*2/3], code4+code5+code8)
		if i%2 == 0 {
			others = append(others, src+"\n}", src[:len(src)/3]+"'")
		}
	}
	kept := code4 + code8 + templates[len(templates)-1]
	want := Print(mustParse(t, kept))

	const goroutines = 4
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prog, err := Parse(kept)
			if err != nil {
				errc <- err
				return
			}
			if got := Print(prog); got != want {
				errc <- fmt.Errorf("goroutine %d: the tree reads differently as soon as it is made", g)
				return
			}
			refused := 0
			for i := 0; i < 1000; i++ {
				if _, err := Parse(others[(i*7+g)%len(others)]); err != nil {
					refused++
				}
				if err := pooledScratchIsClean(); err != nil {
					errc <- fmt.Errorf("goroutine %d, parse %d: %v", g, i, err)
					return
				}
			}
			if refused == 0 || refused == 1000 {
				errc <- fmt.Errorf("goroutine %d: %d of 1000 parses refused; want some of each", g, refused)
				return
			}
			if got := Print(prog); got != want {
				errc <- fmt.Errorf("goroutine %d: the tree kept across 1000 parses reads differently", g)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// pooledScratchIsClean borrows a scratch from the pool, as Parse does, and
// reports anything left in it, up to its capacity.
func pooledScratchIsClean() error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for i, tok := range sc.toks[:cap(sc.toks)] {
		if tok != (Token{}) {
			return fmt.Errorf("pooled token %d is %v", i, tok)
		}
	}
	if err := listsAreClean("node", &sc.nodes); err != nil {
		return err
	}
	if err := listsAreClean("declarator", &sc.decls); err != nil {
		return err
	}
	if err := listsAreClean("property", &sc.props); err != nil {
		return err
	}
	if err := listsAreClean("case", &sc.cases); err != nil {
		return err
	}
	return listsAreClean("parameter", &sc.params)
}

func listsAreClean[T comparable](what string, l *lists[T]) error {
	var zero T
	if len(l.open)+len(l.done)+len(l.fields) > 0 {
		return fmt.Errorf("pooled %s lists hold %d open, %d done, %d fields", what, len(l.open), len(l.done), len(l.fields))
	}
	for _, x := range l.open[:cap(l.open)] {
		if x != zero {
			return fmt.Errorf("a pooled open %s list holds %v", what, x)
		}
	}
	for _, x := range l.done[:cap(l.done)] {
		if x != zero {
			return fmt.Errorf("a pooled finished %s list holds %v", what, x)
		}
	}
	for _, f := range l.fields[:cap(l.fields)] {
		if f != (listField[T]{}) {
			return fmt.Errorf("a pooled %s list still files for a node", what)
		}
	}
	return nil
}
