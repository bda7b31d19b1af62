// Package report renders the study's tables and figures as aligned text,
// in the shape the paper prints them, plus paper-vs-measured comparison
// blocks for EXPERIMENTS.md.
package report

import (
	"fmt"
	"strings"

	"piileak/internal/core"
	"piileak/internal/countermeasure"
	"piileak/internal/policy"
	"piileak/internal/tracking"
)

// Table renders an aligned text table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// CountPct renders "n/p%" the way the paper's tables do.
func CountPct(n, total int) string {
	if total == 0 {
		return fmt.Sprintf("%d/-", n)
	}
	return fmt.Sprintf("%d/%.1f%%", n, 100*float64(n)/float64(total))
}

// Headline renders the §4.2 opening statistics.
func Headline(h core.Headline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "crawled sites:            %d\n", h.TotalSites)
	fmt.Fprintf(&b, "first-party senders:      %d (%.1f%%)\n", h.Senders, h.LeakRate)
	fmt.Fprintf(&b, "third-party receivers:    %d\n", h.Receivers)
	fmt.Fprintf(&b, "requests with leaked PII: %d\n", h.LeakyRequests)
	fmt.Fprintf(&b, "receivers per sender:     %.2f mean, max %d (%s)\n",
		h.MeanReceivers, h.MaxReceivers, h.MaxReceiverSite)
	fmt.Fprintf(&b, "senders with ≥3 receivers: %d (%.2f%%)\n", h.SendersAtLeast3, h.SendersAtLeast3Pc)
	return b.String()
}

// Breakdown renders one Table 1 panel.
func Breakdown(title string, rows []core.BreakdownRow, senderTotal, receiverTotal int) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Label,
			CountPct(r.Senders, senderTotal),
			CountPct(r.Receivers, receiverTotal),
		})
	}
	return title + "\n" + Table([]string{"category", "# of senders", "# of receivers"}, out)
}

// brandOf maps receiver domains to organisations for the Figure 2
// annotation (Google and Adobe receive through multiple domains).
var brandOf = map[string]string{
	"google-analytics.com":  "Google",
	"doubleclick.net":       "Google",
	"googlesyndication.com": "Google",
	"demdex.net":            "Adobe",
	"omtrdc.net":            "Adobe",
	"bing.com":              "Microsoft",
	"clarity.ms":            "Microsoft",
}

// Figure2 renders the top receivers as a text bar chart.
func Figure2(ranks []core.ReceiverRank) string {
	var b strings.Builder
	b.WriteString("Figure 2: top third-party receiver domains (% of senders)\n")
	for _, r := range ranks {
		name := r.Receiver
		if r.Cloaked {
			name += " (cname)"
		}
		if brand := brandOf[r.Receiver]; brand != "" {
			name += " [" + brand + "]"
		}
		bar := strings.Repeat("#", int(r.SenderPct/2+0.5))
		fmt.Fprintf(&b, "%-36s %5.1f%% %-3d %s\n", name, r.SenderPct, r.Senders, bar)
	}
	return b.String()
}

// Table2 renders the tracking-provider census.
func Table2(trackers []tracking.Provider) string {
	var rows [][]string
	for i := range trackers {
		p := &trackers[i]
		for j, row := range p.Rows {
			name := ""
			if j == 0 {
				name = p.Display()
			}
			rows = append(rows, []string{
				name,
				fmt.Sprintf("%d", row.Senders),
				strings.Join(row.Methods, "/"),
				row.Encoding,
				strings.Join(row.Params, "/"),
			})
		}
	}
	return "Table 2: persistent-tracking providers\n" +
		Table([]string{"receiver", "# senders", "method", "encoding", "trackid parameter"}, rows)
}

// Table3 renders the privacy-policy census.
func Table3(t policy.Table3) string {
	var rows [][]string
	for _, r := range t.Rows() {
		rows = append(rows, []string{r.Label, fmt.Sprintf("%d/%.1f%%", r.Count, r.Pct)})
	}
	rows = append(rows, []string{"Total", fmt.Sprintf("%d/100%%", t.Total)})
	return "Table 3: privacy policy disclosures\n" +
		Table([]string{"disclosure", "number/percentage"}, rows)
}

// Browsers renders the §7.1 evaluation.
func Browsers(results []countermeasure.BrowserResult) string {
	var rows [][]string
	for _, r := range results {
		missed := ""
		if len(r.MissedReceivers) > 0 {
			missed = fmt.Sprintf("%d missed", len(r.MissedReceivers))
		}
		rows = append(rows, []string{
			r.Browser,
			fmt.Sprintf("%d", r.Senders),
			fmt.Sprintf("%d", r.Receivers),
			fmt.Sprintf("%.1f%%", r.SenderReductionPct),
			fmt.Sprintf("%.1f%%", r.ReceiverReductionPct),
			fmt.Sprintf("%d", r.SignupFailures),
			missed,
		})
	}
	return "Browser countermeasures (§7.1)\n" +
		Table([]string{"browser", "senders", "receivers", "sender red.", "receiver red.", "signup fail", "shields gaps"}, rows)
}

// Table4 renders the blocklist evaluation.
func Table4(t *countermeasure.Table4) string {
	cell := func(c countermeasure.Cell) string {
		return fmt.Sprintf("%d/%.1f%%", c.Count, c.Pct())
	}
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Metric, r.Method, cell(r.EasyList), cell(r.EasyPrivacy), cell(r.Combined),
		})
	}
	out := "Table 4: detection performance of well-known filters\n" +
		Table([]string{"metric", "method", "EasyList", "EasyPrivacy", "Combined"}, rows)
	if len(t.MissedTrackers) > 0 {
		out += "tracking providers missed by the combined lists: " + strings.Join(t.MissedTrackers, ", ") + "\n"
	}
	return out
}

// ComparisonRow pairs a paper value with our measured value.
type ComparisonRow struct {
	Metric   string
	Paper    string
	Measured string
}

// Comparison renders a paper-vs-measured block.
func Comparison(title string, rows []ComparisonRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{r.Metric, r.Paper, r.Measured})
	}
	return title + "\n" + Table([]string{"metric", "paper", "measured"}, out)
}
