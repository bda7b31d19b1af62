// Command piiblock runs the §7.2 blocklist evaluation (Table 4) against
// the ecosystem's EasyList/EasyPrivacy corpora, or against custom filter
// lists supplied on the command line.
//
// Usage:
//
//	piiblock [-seed N] [-small] [-easylist file] [-easyprivacy file]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"piileak"
	"piileak/internal/countermeasure"
	"piileak/internal/report"
)

func main() {
	seed := flag.Uint64("seed", 2021, "ecosystem seed")
	small := flag.Bool("small", false, "use the scaled-down ecosystem")
	elPath := flag.String("easylist", "", "custom EasyList file (default: the ecosystem's corpus)")
	epPath := flag.String("easyprivacy", "", "custom EasyPrivacy file (default: the ecosystem's corpus)")
	flag.Parse()

	cfg := piileak.DefaultConfig()
	if *small {
		cfg = piileak.SmallConfig(*seed)
	}
	cfg.Ecosystem.Seed = *seed

	study, err := piileak.NewStudy(cfg)
	if err != nil {
		fatal(err)
	}
	if err := study.Run(context.Background()); err != nil {
		fatal(err)
	}

	elText := study.Eco.EasyListText
	epText := study.Eco.EasyPrivacyText
	if *elPath != "" {
		b, err := os.ReadFile(*elPath)
		if err != nil {
			fatal(err)
		}
		elText = string(b)
	}
	if *epPath != "" {
		b, err := os.ReadFile(*epPath)
		if err != nil {
			fatal(err)
		}
		epText = string(b)
	}

	lists, err := countermeasure.ParseLists(elText, epText)
	if err != nil {
		fatal(err)
	}
	cls, err := study.Tracking()
	if err != nil {
		fatal(err)
	}
	var trackers []string
	for _, tr := range cls.Trackers {
		trackers = append(trackers, tr.Receiver)
	}
	t4 := countermeasure.EvaluateBlocklistsIndexed(study.Leaks, study.Result.Requests, lists, trackers)
	fmt.Println(report.Table4(t4))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "piiblock:", err)
	os.Exit(1)
}
