// Command piitrack runs the §5.2 persistent-tracking classification over
// a captured dataset and prints Table 2 plus the receiver census.
//
// Usage:
//
//	piicrawl -o ds.json && piitrack -i ds.json
package main

import (
	"flag"
	"fmt"
	"os"

	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/pii"
	"piileak/internal/report"
	"piileak/internal/tracking"
)

func main() {
	in := flag.String("i", "", "input dataset path (default stdin)")
	depth := flag.Int("depth", 2, "candidate-chain depth; 2 covers every chain the paper observed, 3 builds a very large token set")
	flag.Parse()

	var ds *crawler.Dataset
	var err error
	if *in != "" {
		ds, err = crawler.ReadJSONFile(*in)
	} else {
		ds, err = crawler.ReadJSON(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}

	eng, err := detect.NewEngine(ds.Persona, dnssim.NewClassifier(ds.Zone()), detect.Config{
		Candidates: pii.CandidateConfig{MaxDepth: *depth},
	})
	if err != nil {
		fatal(err)
	}
	sc := eng.NewScanner()

	var leaks []core.Leak
	for _, c := range ds.Successes() {
		leaks = append(leaks, sc.DetectSite(c.Domain, c.Records)...)
	}
	cls := tracking.Classify(leaks)

	fmt.Println(report.Table2(cls.Trackers))
	fmt.Printf("receivers with the same ID from >1 sender: %d\n", cls.MultiSenderID)
	fmt.Printf("multi-sender receivers:                    %d\n", cls.MultiSender)
	fmt.Printf("single-sender receivers:                   %d\n", cls.SingleSender)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "piitrack:", err)
	os.Exit(1)
}
