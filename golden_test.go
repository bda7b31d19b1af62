package piileak

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestLeaksJSONGolden pins the SHA-256 of the leak export for the paper
// configuration and for SmallConfig(7) to constants computed before the
// pooled compressors, table-driven Whirlpool and flat automaton landed.
// Every other byte-identity test compares two run modes of the same
// build; this one fails when a change moves the bytes in all of them.
func TestLeaksJSONGolden(t *testing.T) {
	small, err := NewStudy(SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		study *Study
		want  string
	}{
		{"default", study(t), "16f2be5b99be34a2f27aca2eac20a41960270754d41d59c0e34c3031f34b8fac"},
		{"small-seed7", small, "c44868346ce5d37a085c079686a799114be523318a55ef3f81d2fe7c1a88c916"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(leaksJSON(t, c.study))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: leaks JSON sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}
