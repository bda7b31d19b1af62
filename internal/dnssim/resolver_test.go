package dnssim

import (
	"errors"
	"testing"
)

func TestResolverWithoutHookNeverFails(t *testing.T) {
	z := NewZone()
	z.AddCNAME("metrics.shop.example", "t.tracker.net")
	r := NewResolver(z, nil)
	for _, host := range []string{"metrics.shop.example", "plain.example.com"} {
		if _, err := r.Lookup(host); err != nil {
			t.Errorf("%s: %v", host, err)
		}
	}
	if r.attempts["plain.example.com"] != 1 {
		t.Errorf("attempts = %d, want 1", r.attempts["plain.example.com"])
	}
}

func TestResolverHookVetoesByAttempt(t *testing.T) {
	// A hook failing the first lookup models a transient SERVFAIL: the
	// second lookup of the same host succeeds because the resolver's
	// per-host counter advanced.
	r := NewResolver(NewZone(), func(host string, attempt int) error {
		if host == "flaky.example.com" && attempt == 1 {
			return errors.New("SERVFAIL")
		}
		return nil
	})
	if _, err := r.Lookup("flaky.example.com"); err == nil {
		t.Fatal("first lookup should fail")
	}
	if _, err := r.Lookup("flaky.example.com"); err != nil {
		t.Fatalf("second lookup = %v, want recovery", err)
	}
	if _, err := r.Lookup("other.example.com"); err != nil {
		t.Errorf("unrelated host failed: %v", err)
	}
	if r.attempts["flaky.example.com"] != 2 {
		t.Errorf("attempts = %d, want 2", r.attempts["flaky.example.com"])
	}
}

func TestResolverNormalizesHostForAccounting(t *testing.T) {
	r := NewResolver(NewZone(), nil)
	r.Lookup("WWW.Example.COM")
	if r.attempts["www.example.com"] != 1 {
		t.Error("attempt accounting is case-sensitive")
	}
}

func TestNilZoneResolver(t *testing.T) {
	r := NewResolver(nil, nil)
	if _, err := r.Lookup("anything.example"); err != nil {
		t.Errorf("nil-zone resolver failed: %v", err)
	}
}
