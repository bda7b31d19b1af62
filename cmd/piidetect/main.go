// Command piidetect runs the §4 leak detection and prints the headline
// statistics, the Table 1 breakdowns and Figure 2.
//
// It consumes either a piicrawl dataset or a real browser capture in HAR
// format:
//
//	piicrawl -o ds.json && piidetect -i ds.json [-depth 2] [-top 15]
//	piidetect -har capture.har -site myshop.example [-persona persona.json]
//
// The persona JSON mirrors the pii.Persona fields; without it the
// study's default persona is used.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/har"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/report"
)

func main() {
	in := flag.String("i", "", "input dataset path (default stdin)")
	harPath := flag.String("har", "", "input HAR capture instead of a dataset")
	siteDomain := flag.String("site", "", "first-party registrable domain for -har input")
	personaPath := flag.String("persona", "", "persona JSON for -har input (default: study persona)")
	depth := flag.Int("depth", 2, "candidate-chain depth; 2 covers every chain the paper observed, 3 builds a very large token set")
	top := flag.Int("top", 15, "Figure 2 receiver count")
	leaksOut := flag.String("leaks", "", "also write the raw leak records as JSON to this path")
	flag.Parse()

	// Sites are kept as an ordered slice (dataset order), not a map:
	// the -leaks output must be deterministic across runs.
	type siteRecords struct {
		domain  string
		records []httpmodel.Record
	}
	var (
		persona pii.Persona
		sites   []siteRecords
		nSites  int
		zone    = dnssim.NewZone()
	)

	switch {
	case *harPath != "":
		if *siteDomain == "" {
			fatal(fmt.Errorf("-har requires -site (the first-party registrable domain)"))
		}
		records, err := har.ParseFile(*harPath)
		if err != nil {
			fatal(err)
		}
		persona = pii.Default()
		if *personaPath != "" {
			b, err := os.ReadFile(*personaPath)
			if err != nil {
				fatal(err)
			}
			if err := json.Unmarshal(b, &persona); err != nil {
				fatal(fmt.Errorf("parsing persona: %w", err))
			}
		}
		sites = []siteRecords{{*siteDomain, records}}
		nSites = 1
	default:
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
		persona = ds.Persona
		zone = ds.Zone()
		for _, c := range ds.Successes() {
			sites = append(sites, siteRecords{c.Domain, c.Records})
		}
		nSites = len(sites)
	}

	eng, err := detect.NewEngine(persona, dnssim.NewClassifier(zone), detect.Config{
		Candidates: pii.CandidateConfig{MaxDepth: *depth},
	})
	if err != nil {
		fatal(err)
	}
	sc := eng.NewScanner()

	var leaks []core.Leak
	for _, s := range sites {
		leaks = append(leaks, sc.DetectSite(s.domain, s.records)...)
	}
	a := core.Analyze(leaks, nSites)

	if *leaksOut != "" {
		f, err := os.Create(*leaksOut)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(leaks); err != nil {
			fatal(err)
		}
		f.Close()
	}

	fmt.Println(report.Headline(a.Headline()))
	fmt.Println(report.Breakdown("Table 1a — by method", a.ByMethod(), len(a.Senders), len(a.Receivers)))
	fmt.Println(report.Breakdown("Table 1b — by encoding/hashing", a.ByEncoding(), len(a.Senders), len(a.Receivers)))
	fmt.Println(report.Breakdown("Table 1c — by PII type", a.ByPIIType(), len(a.Senders), len(a.Receivers)))
	fmt.Println(report.Figure2(a.TopReceivers(*top)))

	if *harPath != "" {
		for _, l := range leaks {
			cloak := ""
			if l.Cloaked {
				cloak = " (CNAME-cloaked)"
			}
			fmt.Printf("leak: %-9s -> %s%s  %s of %s in %q (%s)\n",
				l.Method, l.Receiver, cloak, l.EncodingLabel(), l.Token.Field.Type, l.Param, l.RequestURL)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "piidetect:", err)
	os.Exit(1)
}
