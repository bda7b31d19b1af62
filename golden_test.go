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

// TestTablesGolden pins the SHA-256 of the rendered Table 1, Table 2 and
// Table 4 text for the paper configuration and for SmallConfig(7) to
// constants computed before Table 4's filter rules gained a literal
// prefilter and its evaluation began scanning each distinct request
// once per list. The other Table 4 checks compare two run paths of one
// build; this one fails when a change moves the bytes in all of them.
func TestTablesGolden(t *testing.T) {
	small, err := NewStudy(SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name                   string
		study                  *Study
		table1, table2, table4 string
	}{
		{"default", study(t),
			"9ba0c5121aea4ba80ed77dff4a7a76debda5ce4ddf1c8d410629b7e1ca61d335",
			"7191c97dfdd3514d39f0378d9caecfdb7f439e5346c3694905a0fc68e3a1982c",
			"454addc1950a20742bc3bf89cfed96c562b970ca15f65de1ecc5e0ea1c1a208a"},
		{"small-seed7", small,
			"ebae2949cadc83a519fdfc488fd2de56e855160d633b1bd0c1e21e29904ccd06",
			"4623af3e009adc3cbddbf0a1e2093ac2f23d03f25fe7f7026ae7d81671c53605",
			"aa59f86c386a7fea1c986cdf6448584cc29ab3b12b1acdb643fe68611364f1bb"},
	}
	for _, c := range cases {
		for _, tab := range []struct {
			name   string
			render func() (string, error)
			want   string
		}{
			{"Table1", c.study.Table1, c.table1},
			{"Table2", c.study.Table2, c.table2},
			{"Table4", c.study.Table4, c.table4},
		} {
			text, err := tab.render()
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, tab.name, err)
			}
			sum := sha256.Sum256([]byte(text))
			if got := hex.EncodeToString(sum[:]); got != tab.want {
				t.Errorf("%s: %s sha256 = %s, want %s", c.name, tab.name, got, tab.want)
			}
		}
	}
}
