// Package countermeasure implements §7: the browser evaluation (re-crawl
// the sender sites under each browser profile and measure surviving
// leakage) and the blocklist evaluation (match the leaky requests and
// their initiator chains against EasyList/EasyPrivacy, Table 4).
package countermeasure

import (
	"context"
	"sort"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// BrowserResult is one §7.1 evaluation row.
type BrowserResult struct {
	Browser string
	// Senders and Receivers count the leak populations surviving under
	// this profile.
	Senders   int
	Receivers int
	// SenderReductionPct / ReceiverReductionPct are relative to the
	// baseline profile.
	SenderReductionPct   float64
	ReceiverReductionPct float64
	// SignupFailures counts sites whose auth flow broke under the
	// profile (Brave's CAPTCHA case).
	SignupFailures int
	// MissedReceivers lists receivers still leaked to despite the
	// profile's protections (only meaningful for blocking profiles).
	MissedReceivers []string
}

// Profiles returns the §7.1 browser set for an ecosystem: the four
// vanilla browsers, Firefox with ETP, and Brave with the shields list.
func Profiles(eco *webgen.Ecosystem) []browser.Profile {
	return []browser.Profile{
		browser.Chrome93(),
		browser.Opera79(),
		browser.Safari14(),
		browser.Firefox88ETP(eco.BraveShields), // ETP uses the same tracker list
		browser.Brave129(eco.BraveShields),
	}
}

// EvaluateBrowsers re-crawls the sender sites under the baseline and
// each profile, runs detection, and reports surviving leakage. The
// detection engine comes from the shared build cache (depth-2
// candidates, matching the main study), so repeated evaluations — and
// evaluations alongside a study of the same persona — compile the
// candidate set once per process.
func EvaluateBrowsers(eco *webgen.Ecosystem, baseline browser.Profile, profiles []browser.Profile) []BrowserResult {
	det := detect.MustNewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{})

	run := func(p browser.Profile) (senders, receivers map[string]bool, failures int) {
		// Without a checkpoint or cancellation the crawl cannot fail.
		//lint:allow ctxflow EvaluateBrowsers takes no ctx; its checkpoint-free re-crawl of the senders is not cancellable
		ds, _ := crawler.Run(context.Background(), eco, p, crawler.Options{Source: site.Slice(eco.SenderSites)})
		senders, receivers = map[string]bool{}, map[string]bool{}
		for _, c := range ds.Crawls {
			if c.Outcome == crawler.OutcomeCaptcha {
				failures++
			}
			for _, l := range det.DetectSite(c.Domain, c.Records) {
				senders[l.Site] = true
				receivers[l.Receiver] = true
			}
		}
		return senders, receivers, failures
	}

	baseSenders, baseReceivers, _ := run(baseline)

	results := []BrowserResult{{
		Browser:   baseline.Name + " " + baseline.Version,
		Senders:   len(baseSenders),
		Receivers: len(baseReceivers),
	}}
	for _, p := range profiles {
		s, r, failures := run(p)
		res := BrowserResult{
			Browser:        p.Name + " " + p.Version,
			Senders:        len(s),
			Receivers:      len(r),
			SignupFailures: failures,
		}
		if len(baseSenders) > 0 {
			res.SenderReductionPct = 100 * float64(len(baseSenders)-len(s)) / float64(len(baseSenders))
		}
		if len(baseReceivers) > 0 {
			res.ReceiverReductionPct = 100 * float64(len(baseReceivers)-len(r)) / float64(len(baseReceivers))
		}
		if p.Shields != nil {
			for recv := range r {
				res.MissedReceivers = append(res.MissedReceivers, recv)
			}
			sort.Strings(res.MissedReceivers)
		}
		results = append(results, res)
	}
	return results
}
