package core

import (
	"reflect"
	"testing"

	"piileak/internal/httpmodel"
	"piileak/internal/pii"
)

func TestAnalyzeAggregates(t *testing.T) {
	leaks := []Leak{
		{Site: "a.com", Receiver: "fb.com", Method: httpmodel.SurfaceURI, Seq: 1,
			Token: pii.Token{Field: pii.Field{Type: pii.TypeEmail}, Chain: []string{"sha256"}}},
		{Site: "a.com", Receiver: "cr.com", Method: httpmodel.SurfaceURI, Seq: 2,
			Token: pii.Token{Field: pii.Field{Type: pii.TypeEmail}, Chain: []string{"md5"}}},
		{Site: "a.com", Receiver: "pn.com", Method: httpmodel.SurfaceBody, Seq: 3,
			Token: pii.Token{Field: pii.Field{Type: pii.TypeName}}},
		{Site: "b.com", Receiver: "fb.com", Method: httpmodel.SurfaceURI, Seq: 1,
			Token: pii.Token{Field: pii.Field{Type: pii.TypeEmail}, Chain: []string{"sha256"}}},
	}
	a := Analyze(leaks, 10)
	h := a.Headline()
	if h.Senders != 2 || h.Receivers != 3 {
		t.Errorf("headline = %+v", h)
	}
	if h.LeakRate != 20 {
		t.Errorf("leak rate = %v", h.LeakRate)
	}
	if h.LeakyRequests != 4 {
		t.Errorf("leaky requests = %d", h.LeakyRequests)
	}
	if h.MaxReceivers != 3 || h.MaxReceiverSite != "a.com" {
		t.Errorf("max = %d @ %s", h.MaxReceivers, h.MaxReceiverSite)
	}
	if h.SendersAtLeast3 != 1 {
		t.Errorf("≥3 = %d", h.SendersAtLeast3)
	}

	rows := a.ByMethod()
	byLabel := map[string]BreakdownRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	if byLabel["uri"].Senders != 2 || byLabel["payload body"].Senders != 1 {
		t.Errorf("method rows = %+v", byLabel)
	}
	if byLabel["combined"].Senders != 1 { // a.com uses uri+payload
		t.Errorf("combined senders = %d", byLabel["combined"].Senders)
	}

	enc := a.ByEncoding()
	encLabel := map[string]BreakdownRow{}
	for _, r := range enc {
		encLabel[r.Label] = r
	}
	if encLabel["sha256"].Senders != 2 || encLabel["md5"].Senders != 1 || encLabel["plaintext"].Senders != 1 {
		t.Errorf("encoding rows = %+v", encLabel)
	}
	if encLabel["combined"].Senders != 1 {
		t.Errorf("combined encodings = %d", encLabel["combined"].Senders)
	}

	types := a.ByPIIType()
	if types[0].Label != "email" || types[0].Senders != 1 {
		t.Errorf("pii rows = %+v", types)
	}

	top := a.TopReceivers(2)
	if len(top) != 2 || top[0].Receiver != "fb.com" || top[0].Senders != 2 {
		t.Errorf("top receivers = %+v", top)
	}
	if top[0].SenderPct != 100 {
		t.Errorf("fb pct = %v", top[0].SenderPct)
	}
}

func TestAccumulatorMatchesAnalyze(t *testing.T) {
	// Folding leaks one at a time in a scrambled order must finalize to
	// exactly the batch Analyze over the same list.
	leaks := []Leak{
		{Site: "a.com", Receiver: "fb.com", Method: httpmodel.SurfaceURI, Seq: 1},
		{Site: "b.com", Receiver: "fb.com", Method: httpmodel.SurfaceBody, Seq: 2},
		{Site: "a.com", Receiver: "crit.eo", Method: httpmodel.SurfaceReferer, Seq: 3, Cloaked: true},
		{Site: "c.com", Receiver: "adnxs.com", Method: httpmodel.SurfaceCookie, Seq: 1},
	}
	acc := NewAccumulator()
	for _, i := range []int{2, 0, 3, 1} {
		acc.Add(&leaks[i])
	}
	acc.AddSites(7)
	got := acc.Finalize(leaks)
	want := Analyze(leaks, 7)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("accumulator diverges from Analyze:\n%+v\n%+v", got, want)
	}
	senders := acc.SenderSet()
	if len(senders) != 3 || !senders["a.com"] || !senders["b.com"] || !senders["c.com"] {
		t.Errorf("SenderSet = %v", senders)
	}
}
