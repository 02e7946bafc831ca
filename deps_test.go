package adwars

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestImportBoundary pins what the serving binaries link of the module. The
// gateway and the control CLI stand on the replica health contract
// (chassis.Health), not on the replica: they link artifact, chassis, fleet
// and wire and nothing else, so fleet importing serve again fails here. The
// replica links none of the crawl (crawler, wayback, har, web, stats): the
// packages it shares with the paper's pipeline fan out through fanout, a
// leaf, not through the crawler.
func TestImportBoundary(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	linked := func(cmd string) []string {
		pkgs, err := goList(root, "-deps", "./cmd/"+cmd)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, p := range pkgs {
			if name, ok := strings.CutPrefix(p.ImportPath, "adwars/internal/"); ok {
				out = append(out, name)
			}
		}
		slices.Sort(out)
		return out
	}
	for _, cmd := range []string{"adwars-gateway", "adwars-ctl"} {
		if got, want := linked(cmd), []string{"artifact", "chassis", "fleet", "wire"}; !slices.Equal(got, want) {
			t.Errorf("%s links internal packages %v, want exactly %v", cmd, got, want)
		}
	}
	serve := linked("adwars-serve")
	for _, offline := range []string{"crawler", "har", "stats", "wayback", "web"} {
		if slices.Contains(serve, offline) {
			t.Errorf("adwars-serve links internal/%s (all it links: %v)", offline, serve)
		}
	}
}
