// Script scanner: the paper's proposed offline deployment (§5) — a filter
// list author periodically crawls sites, runs the trained model over every
// script, and reviews only the flagged ones, turning each detection into a
// candidate filter rule.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"adwars"
	"adwars/internal/antiadblock"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	opt := antiadblock.GenOptions{PackProbability: 0.2}

	// Training corpus: vendor scripts vs. benign site scripts.
	var positives, negatives []string
	for i := 0; i < 30; i++ {
		for _, v := range antiadblock.Catalog {
			positives = append(positives,
				antiadblock.VendorScript(v, "http://pub.example/ads.js", "notice", rng, opt))
		}
	}
	for i := 0; i < len(positives)*2; i++ {
		negatives = append(negatives, antiadblock.RandomBenignScript(rng, opt))
	}
	det, err := adwars.TrainDetector(positives, negatives, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d anti-adblock + %d benign scripts (%d features)\n\n",
		len(positives), len(negatives), det.NumFeatures())

	// "Crawl" a batch of unknown sites: some deploy detectors, some not.
	type crawled struct {
		site, url, src string
		truth          bool
	}
	var batch []crawled
	for i := 0; i < 10; i++ {
		site := fmt.Sprintf("site%02d.example", i)
		if i%3 == 0 {
			v := antiadblock.Catalog[i%len(antiadblock.Catalog)]
			batch = append(batch, crawled{
				site:  site,
				url:   v.ScriptURL(site),
				src:   antiadblock.VendorScript(v, "http://"+site+"/ads.js", "abNotice", rng, opt),
				truth: true,
			})
		} else {
			batch = append(batch, crawled{
				site: site,
				url:  "http://" + site + "/js/app.js",
				src:  antiadblock.RandomBenignScript(rng, opt),
			})
		}
	}

	// Scan and propose rules for detections.
	correct := 0
	for _, c := range batch {
		flagged, err := det.IsAntiAdblock(c.src)
		if err != nil {
			log.Printf("%s: unparseable script skipped: %v", c.site, err)
			continue
		}
		if flagged == c.truth {
			correct++
		}
		if flagged {
			rule := "||" + c.url[len("http://"):] + "$script"
			fmt.Printf("FLAGGED  %-16s → candidate rule: %s\n", c.site, rule)
		} else {
			fmt.Printf("clean    %-16s\n", c.site)
		}
	}
	fmt.Printf("\n%d/%d scripts classified correctly\n", correct, len(batch))
}
