package report

import (
	"strings"
	"testing"

	"piileak/internal/core"
	"piileak/internal/countermeasure"
	"piileak/internal/policy"
	"piileak/internal/tracking"
)

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{
		{"row-one-cell", "x"},
		{"r2", "y"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// All rows align to the same column for the second field.
	col := strings.Index(lines[0], "long-header")
	if !strings.HasPrefix(lines[2][col:], "x") {
		t.Errorf("misaligned table:\n%s", out)
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("missing separator:\n%s", out)
	}
}

func TestCountPct(t *testing.T) {
	if got := CountPct(13, 130); got != "13/10.0%" {
		t.Errorf("CountPct = %q", got)
	}
	if got := CountPct(5, 0); got != "5/-" {
		t.Errorf("CountPct zero total = %q", got)
	}
}

func TestHeadline(t *testing.T) {
	out := Headline(core.Headline{
		TotalSites: 307, Senders: 130, Receivers: 100, LeakRate: 42.3,
		LeakyRequests: 1522, MeanReceivers: 2.97, SendersAtLeast3: 60,
		SendersAtLeast3Pc: 46.15, MaxReceivers: 16, MaxReceiverSite: "shop.example",
	})
	for _, want := range []string{"307", "130", "42.3%", "1522", "2.97", "16 (shop.example)"} {
		if !strings.Contains(out, want) {
			t.Errorf("headline missing %q:\n%s", want, out)
		}
	}
}

func TestBreakdown(t *testing.T) {
	out := Breakdown("Table 1a", []core.BreakdownRow{
		{Label: "uri", Senders: 118, Receivers: 78},
	}, 130, 100)
	if !strings.Contains(out, "118/90.8%") || !strings.Contains(out, "78/78.0%") {
		t.Errorf("breakdown:\n%s", out)
	}
}

func TestFigure2Annotations(t *testing.T) {
	out := Figure2([]core.ReceiverRank{
		{Receiver: "facebook.com", Senders: 78, SenderPct: 60},
		{Receiver: "doubleclick.net", Senders: 18, SenderPct: 13.8},
		{Receiver: "omtrdc.net", Senders: 7, SenderPct: 5.4, Cloaked: true},
	})
	if !strings.Contains(out, "[Google]") {
		t.Errorf("brand annotation missing:\n%s", out)
	}
	if !strings.Contains(out, "omtrdc.net (cname)") {
		t.Errorf("cname annotation missing:\n%s", out)
	}
	if !strings.Contains(out, "####") {
		t.Errorf("bars missing:\n%s", out)
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2([]tracking.Provider{
		{
			Receiver: "facebook.com", Senders: 74,
			Rows: []tracking.Row{
				{Senders: 72, Methods: []string{"Payload", "URI"}, Encoding: "sha256", Params: []string{"udff[em]"}},
				{Senders: 2, Methods: []string{"URI"}, Encoding: "md5", Params: []string{"ud[em]"}},
			},
		},
	})
	if !strings.Contains(out, "facebook.com") || !strings.Contains(out, "udff[em]") {
		t.Errorf("table 2:\n%s", out)
	}
	// The second encoding row leaves the receiver column empty.
	lines := strings.Split(out, "\n")
	foundContinuation := false
	for _, l := range lines {
		if strings.Contains(l, "ud[em]") && strings.HasPrefix(l, " ") {
			foundContinuation = true
		}
	}
	if !foundContinuation {
		t.Errorf("continuation row not blanked:\n%s", out)
	}
}

func TestTable3Rendering(t *testing.T) {
	out := Table3(policy.Table3{NotSpecific: 102, Specific: 9, NoDescription: 15, ExplicitlyNot: 4, Total: 130})
	for _, want := range []string{"102/78.5%", "9/6.9%", "15/11.5%", "4/3.1%", "130/100%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestBrowsersRendering(t *testing.T) {
	out := Browsers([]countermeasure.BrowserResult{
		{Browser: "Firefox 88", Senders: 130, Receivers: 100},
		{Browser: "Brave 1.29.81", Senders: 9, Receivers: 8,
			SenderReductionPct: 93.1, ReceiverReductionPct: 92,
			SignupFailures: 1, MissedReceivers: []string{"a", "b"}},
	})
	if !strings.Contains(out, "93.1%") || !strings.Contains(out, "2 missed") {
		t.Errorf("browsers table:\n%s", out)
	}
}

func TestTable4Rendering(t *testing.T) {
	out := Table4(&countermeasure.Table4{
		Rows: []countermeasure.Table4Row{{
			Metric: "senders", Method: "total",
			EasyList:    countermeasure.Cell{Count: 1, Total: 130},
			EasyPrivacy: countermeasure.Cell{Count: 95, Total: 130},
			Combined:    countermeasure.Cell{Count: 102, Total: 130},
		}},
		MissedTrackers: []string{"custora.com", "zendesk.com"},
	})
	for _, want := range []string{"95/73.1%", "102/78.5%", "custora.com, zendesk.com"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 4 missing %q:\n%s", want, out)
		}
	}
}

func TestComparison(t *testing.T) {
	out := Comparison("cmp", []ComparisonRow{{Metric: "senders", Paper: "130", Measured: "130"}})
	if !strings.Contains(out, "paper") || !strings.Contains(out, "measured") {
		t.Errorf("comparison:\n%s", out)
	}
}
