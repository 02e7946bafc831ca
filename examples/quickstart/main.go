// Quickstart: the three core capabilities in one file — parse and match
// Adblock Plus filter rules, hide anti-adblock warning elements, and
// classify a JavaScript source as anti-adblocking with the §5 detector.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"adwars"
	"adwars/internal/abp"
	"adwars/internal/antiadblock"
)

func main() {
	// 1. Compile a small anti-adblock filter list (rules from the paper).
	list, errs := adwars.CompileFilterList("demo", `
! Demo anti-adblock filter list
||pagefair.com^$third-party
@@||numerama.com/ads.js
smashboards.com###noticeMain
`)
	if len(errs) > 0 {
		log.Fatalf("filter list errors: %v", errs)
	}
	fmt.Printf("compiled %d rules\n", list.Len())

	// 2. Match HTTP requests the way an adblocker would.
	for _, q := range []adwars.HTTPRequest{
		{URL: "http://pagefair.com/static/adblock_detection/js/d.min.js",
			Type: abp.TypeScript, PageDomain: "news.example"},
		{URL: "http://numerama.com/ads.js?v=1",
			Type: abp.TypeScript, PageDomain: "numerama.com"},
		{URL: "http://news.example/app.js",
			Type: abp.TypeScript, PageDomain: "news.example"},
	} {
		decision, rule := list.MatchRequest(q)
		fmt.Printf("%-60s → %-8s", q.URL, decision)
		if rule != nil {
			fmt.Printf("  (rule: %s)", rule)
		}
		fmt.Println()
	}

	// 3. Hide anti-adblock warning elements. The list matches requests
	// only; its element hiding rules are indexed once per list version,
	// beside it, and the index is shared by every page.
	hiding := abp.NewHiding(list)
	elems := []*abp.Element{
		{Tag: "div", ID: "noticeMain"},
		{Tag: "div", ID: "content"},
	}
	hidden := hiding.HiddenElements("smashboards.com", elems)
	for i := range elems {
		state := "visible"
		if _, ok := hidden[i]; ok {
			state = "HIDDEN"
		}
		fmt.Printf("element #%s on smashboards.com → %s\n", elems[i].ID, state)
	}

	// 4. Train the anti-adblock script detector on a tiny generated
	// corpus and classify an unseen script.
	rng := rand.New(rand.NewSource(1))
	var positives, negatives []string
	for i := 0; i < 40; i++ {
		// Cover both bait techniques of §3.1 so the model generalizes.
		positives = append(positives,
			antiadblock.HTMLBaitScript("noticeMain", rng, antiadblock.GenOptions{}),
			antiadblock.HTTPBaitScript("http://pub.example/ads.js", "notice", rng, antiadblock.GenOptions{}))
		negatives = append(negatives,
			antiadblock.RandomBenignScript(rng, antiadblock.GenOptions{}),
			antiadblock.RandomBenignScript(rng, antiadblock.GenOptions{}))
	}
	det, err := adwars.TrainDetector(positives, negatives, 1)
	if err != nil {
		log.Fatal(err)
	}
	unseen := antiadblock.HTTPBaitScript(
		"http://example.com/advertising.js", "abWarning", rng, antiadblock.GenOptions{})
	isAAB, err := det.IsAntiAdblock(unseen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detector (%d features) says unseen HTTP-bait script is anti-adblock: %v\n",
		det.NumFeatures(), isAAB)
}
