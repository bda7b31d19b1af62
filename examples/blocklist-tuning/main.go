// Blocklist-tuning: reproduce the §7.2 finding that EasyList+EasyPrivacy
// miss some PII-tracking providers, then show how adding three rules
// closes the gap — the workflow of a filter-list maintainer.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"piileak"
	"piileak/internal/countermeasure"
)

func main() {
	study, err := piileak.NewStudy(piileak.SmallConfig(23))
	if err != nil {
		log.Fatal(err)
	}
	if err := study.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	cls, err := study.Tracking()
	if err != nil {
		log.Fatal(err)
	}
	var trackers []string
	for _, tr := range cls.Trackers {
		trackers = append(trackers, tr.Receiver)
	}

	evaluate := func(label, elText, epText string) []string {
		lists, err := countermeasure.ParseLists(elText, epText)
		if err != nil {
			log.Fatal(err)
		}
		t4 := countermeasure.EvaluateBlocklistsIndexed(study.Leaks, study.Result.Requests, lists, trackers)
		for _, r := range t4.Rows {
			if r.Metric == "senders" && r.Method == "total" {
				fmt.Printf("%-22s senders covered: EasyList %d, EasyPrivacy %d, combined %d/%d\n",
					label, r.EasyList.Count, r.EasyPrivacy.Count, r.Combined.Count, r.Combined.Total)
			}
		}
		return t4.MissedTrackers
	}

	missed := evaluate("stock lists:", study.Eco.EasyListText, study.Eco.EasyPrivacyText)
	fmt.Printf("tracking providers escaping the stock lists: %s\n\n", strings.Join(missed, ", "))

	// Patch EasyPrivacy with one rule per escapee and re-evaluate.
	var patch strings.Builder
	patch.WriteString(study.Eco.EasyPrivacyText)
	patch.WriteString("! --- local additions ---\n")
	for _, d := range missed {
		patch.WriteString("||" + d + "^$third-party\n")
	}
	missedAfter := evaluate("patched lists:", study.Eco.EasyListText, patch.String())
	if len(missedAfter) == 0 {
		fmt.Println("all tracking providers covered after the patch")
	} else {
		fmt.Printf("still escaping: %s\n", strings.Join(missedAfter, ", "))
	}
}
