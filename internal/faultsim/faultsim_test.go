package faultsim

import (
	"testing"
	"time"
)

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := New(Config{Seed: 7})
	for _, host := range []string{"www.example.com", "cdn.tracker.net", "a.b.c"} {
		if p := in.ProfileFor(host); p != nil {
			t.Errorf("%s: profile %+v from zero-rate config", host, p)
		}
		if f := in.Check(host, 1); f != nil {
			t.Errorf("%s: fault %v from zero-rate config", host, f)
		}
	}
}

func TestProfilesAreDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.5}
	a, b := New(cfg), New(cfg)
	hosts := []string{"one.com", "two.com", "three.com", "four.com", "five.com", "six.com"}
	faulty := 0
	for _, h := range hosts {
		pa, pb := a.ProfileFor(h), b.ProfileFor(h)
		if (pa == nil) != (pb == nil) {
			t.Fatalf("%s: determinism broken: %v vs %v", h, pa, pb)
		}
		if pa == nil {
			continue
		}
		faulty++
		if *pa != *pb {
			t.Errorf("%s: profiles differ: %+v vs %+v", h, pa, pb)
		}
	}
	if faulty == 0 {
		t.Error("rate 0.5 made no host faulty")
	}
	// A different seed reshuffles the assignment.
	c := New(Config{Seed: 43, Rate: 0.5})
	same := true
	for _, h := range hosts {
		if (a.ProfileFor(h) == nil) != (c.ProfileFor(h) == nil) {
			same = false
		}
	}
	if same {
		t.Error("seed change did not alter any host's fate (suspicious)")
	}
}

func TestRateBounds(t *testing.T) {
	hosts := make([]string, 200)
	for i := range hosts {
		hosts[i] = string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + "host.example"
	}
	all := New(Config{Seed: 1, Rate: 1})
	none := New(Config{Seed: 1, Rate: 0})
	for _, h := range hosts {
		if all.ProfileFor(h) == nil {
			t.Fatalf("rate 1: %s healthy", h)
		}
		if none.ProfileFor(h) != nil {
			t.Fatalf("rate 0: %s faulty", h)
		}
	}
}

func TestFlakyWindowThenRecovery(t *testing.T) {
	in := New(Config{Seed: 9, Hosts: map[string]Profile{
		"flaky.com": {Kind: KindHTTP5xx, FailFirst: 2},
	}})
	if f := in.Check("flaky.com", 1); f == nil {
		t.Fatal("attempt 1 should fault")
	} else if f.Status < 500 || f.Status > 599 {
		t.Errorf("5xx fault carries status %d", f.Status)
	}
	if f := in.Check("flaky.com", 2); f == nil {
		t.Fatal("attempt 2 should fault")
	}
	if f := in.Check("flaky.com", 3); f != nil {
		t.Fatalf("attempt 3 should recover, got %v", f)
	}
}

func TestDegradingHostDiesMidFlow(t *testing.T) {
	in := New(Config{Seed: 9, Hosts: map[string]Profile{
		"degrade.com": {Kind: KindTimeout, FailAfter: 3},
	}})
	for a := 1; a <= 3; a++ {
		if f := in.Check("degrade.com", a); f != nil {
			t.Fatalf("attempt %d should succeed, got %v", a, f)
		}
	}
	for a := 4; a <= 6; a++ {
		if f := in.Check("degrade.com", a); f == nil {
			t.Fatalf("attempt %d should fault", a)
		}
	}
}

func TestPermanentHostNeverRecovers(t *testing.T) {
	in := New(Config{Seed: 9, Hosts: map[string]Profile{
		"dead.com": {Kind: KindTruncated, Permanent: true},
	}})
	for _, a := range []int{1, 2, 10, 1000} {
		if in.Check("dead.com", a) == nil {
			t.Fatalf("attempt %d should fault", a)
		}
	}
}

func TestPinnedHealthyOverridesRate(t *testing.T) {
	in := New(Config{Seed: 1, Rate: 1, Hosts: map[string]Profile{
		"safe.com": {},
	}})
	if p := in.ProfileFor("safe.com"); p != nil {
		t.Errorf("pinned-healthy host got profile %+v", p)
	}
	if in.ProfileFor("other.com") == nil {
		t.Error("rate 1 host unexpectedly healthy")
	}
}

func TestDNSKindRoutesThroughHook(t *testing.T) {
	in := New(Config{Seed: 9, Hosts: map[string]Profile{
		"nodns.com": {Kind: KindDNS, FailFirst: 1},
	}})
	// Check skips DNS-kind hosts; CheckDNS (and the hook) owns them.
	if f := in.Check("nodns.com", 1); f != nil {
		t.Fatalf("Check handled a DNS-kind host: %v", f)
	}
	if f := in.CheckDNS("nodns.com", 1); f == nil || f.Kind != KindDNS {
		t.Fatalf("CheckDNS attempt 1 = %v, want DNS fault", f)
	}
	if f := in.CheckDNS("nodns.com", 2); f != nil {
		t.Fatalf("CheckDNS attempt 2 = %v, want recovery", f)
	}
	hook := in.DNSHook()
	if err := hook("nodns.com", 1); err == nil {
		t.Fatal("hook attempt 1 should fail")
	}
	if err := hook("nodns.com", 2); err != nil {
		t.Fatalf("hook attempt 2 = %v, want nil", err)
	}
}

func TestFaultErrorAndTransient(t *testing.T) {
	f := &Fault{Kind: KindHTTP5xx, Host: "x.com", Attempt: 3, Status: 503}
	if f.Error() == "" || !f.Transient() {
		t.Error("fault must render and be transient")
	}
	slow := &Fault{Kind: KindSlow, Host: "x.com", Attempt: 1, Delay: 15 * time.Second}
	if slow.Error() == "" {
		t.Error("slow fault must render")
	}
}

func TestClassMixRoughlyMatchesFractions(t *testing.T) {
	in := New(Config{Seed: 5, Rate: 1})
	perm, degrade, flaky := 0, 0, 0
	for i := 0; i < 300; i++ {
		h := hostName(i)
		p := in.ProfileFor(h)
		if p == nil {
			t.Fatalf("%s healthy at rate 1", h)
		}
		switch {
		case p.Permanent:
			perm++
		case p.FailAfter > 0:
			degrade++
		case p.FailFirst > 0:
			flaky++
		default:
			t.Fatalf("%s: profile with no failure window: %+v", h, p)
		}
	}
	// Loose sanity bounds — the split is hash-based, not exact.
	if perm == 0 || degrade == 0 || flaky == 0 {
		t.Fatalf("class mix degenerate: perm=%d degrade=%d flaky=%d", perm, degrade, flaky)
	}
	if flaky < perm || flaky < degrade {
		t.Errorf("flaky should dominate at 80%%: perm=%d degrade=%d flaky=%d", perm, degrade, flaky)
	}
}

func hostName(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return "h" + string(letters[i%26]) + string(letters[(i/26)%26]) + ".example.com"
}
