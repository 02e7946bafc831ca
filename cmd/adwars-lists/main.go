// Command adwars-lists runs the §3 filter-list analyses: the temporal
// evolution of each list (Figure 1), the rank and category distributions
// of listed domains (Table 1, Figure 2), the exception/overlap comparison
// (§3.3), the cross-list addition lag (Figure 3), and the dead-rule
// fraction (the share of rules that never fire under a live replay, and the
// automaton a list of the fired rules alone would ship).
//
// Usage:
//
//	adwars-lists [-scale N] [-seed S] [-dump DIR] [-save-snapshot PATH [-label L]]
//
// -scale shrinks the world by N× (1 = paper scale, slow; 20 = quick).
// -dump DIR writes the generated filter lists as .txt files.
// -save-snapshot PATH freezes the latest version of the three anti-adblock
// filter lists as a versioned snapshot for adwars-serve: the rules and each
// list's compiled match automaton, which loaders attach instead of
// compiling. -label overrides the snapshot's label.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"adwars/internal/abp"
	"adwars/internal/experiments"
	"adwars/internal/listgen"
	"adwars/internal/simworld"
)

func main() {
	scale := flag.Int("scale", 10, "world shrink factor (1 = paper scale)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	dump := flag.String("dump", "", "directory to write the generated filter lists as .txt files")
	saveSnapshot := flag.String("save-snapshot", "", "write the latest compiled lists as a serving snapshot to this path")
	label := flag.String("label", "", "override the snapshot label (default \"seed S scale N\"); distinct labels give distinct snapshot versions for staged rollouts")
	flag.Parse()

	if *scale < 1 {
		log.Fatalf("-scale %d: want a shrink factor of at least 1 (1 = paper scale)", *scale)
	}
	cfg := simworld.Scaled(*seed, *scale)
	fmt.Fprintf(os.Stderr, "building world (universe %d, seed %d)...\n", cfg.UniverseSize, *seed)
	lab := experiments.NewLab(cfg)

	if *saveSnapshot != "" {
		snapLabel := *label
		if snapLabel == "" {
			snapLabel = fmt.Sprintf("seed %d scale %d", *seed, *scale)
		}
		snap := &abp.ListsSnapshot{
			Label: snapLabel,
			Lists: []*abp.List{
				lab.Lists.AAK.LatestList(),
				lab.Lists.EasyListAA.LatestList(),
				lab.Lists.AWRL.LatestList(),
			},
		}
		if err := abp.SaveListsSnapshot(*saveSnapshot, snap); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote lists snapshot %s (%d lists, %d rules)\n",
			*saveSnapshot, len(snap.Lists), snap.Rules())
	}

	fmt.Println(experiments.Fig1(lab.Lists.AAK, lab.World.Cfg.End).Render())
	fmt.Println(experiments.Fig1(lab.Lists.AWRL, lab.World.Cfg.End).Render())
	fmt.Println(experiments.Fig1(lab.Lists.EasyListAA, lab.World.Cfg.End).Render())
	fmt.Println(lab.Table1().Render())
	fmt.Println(lab.Fig2().Render())
	fmt.Println(lab.Overlap().Render())
	fmt.Println(experiments.RenderSharedRules(lab.SharedRuleExhibit(4)))
	fmt.Println(lab.Fig3().Render())
	fmt.Println(lab.DeadRules(0).Render())

	if *dump != "" {
		if err := os.MkdirAll(*dump, 0o755); err != nil {
			log.Fatal(err)
		}
		for file, h := range map[string]*abp.History{
			"anti-adblock-killer.txt":     lab.Lists.AAK,
			"easylist-antiadblock.txt":    lab.Lists.EasyListAA,
			"adblock-warning-removal.txt": lab.Lists.AWRL,
		} {
			path := filepath.Join(*dump, file)
			if err := os.WriteFile(path, []byte(listgen.RenderLatest(h)), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
}
