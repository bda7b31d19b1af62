package piileak

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/countermeasure"
	"piileak/internal/crawler"
	"piileak/internal/webgen"
)

// TestDatasetGoldenPerProfile pins the SHA-256 of the crawled dataset
// under every §7.1 browser profile, for the paper configuration and
// for SmallConfig(7), to constants computed before the browser began
// resolving each request's host once. TestLeaksJSONGolden covers only
// Firefox 88's leak bytes; these pins also hold the third-party cookie
// paths of Safari and ETP and the Shields path of Brave.
func TestDatasetGoldenPerProfile(t *testing.T) {
	want := map[string]map[string]string{
		"default": {
			"Firefox 88":     "a51da789526ab1a394f4d95985a244edb68e7e0052fe2474714a0503b2526fc7",
			"Chrome 93":      "756e45bbd015c7b4a9cc4e785e6da90b7ed4ea06bc191559dbf5bc87488c6b20",
			"Opera 79.0":     "ad5777d10f76405377e190847e09ae3fe25debce8a318fab1eeea270d357fee4",
			"Safari 14.03":   "dbfc0ec9fa4a19b0ec4a4408e9a0324adb7e28a52d48dcda90449ce1e47831aa",
			"Firefox 88+ETP": "bb4e39a00be421a5e4a2576cb60dc861d8b1b1b58424af436cb419e4f717e229",
			"Brave 1.29.81":  "020dcd8440309b3d506f86470723dab8acbfdb4562113d952da1b97bf978d88e",
		},
		"small-seed7": {
			"Firefox 88":     "463c27c59e1122e3a49e412a637a8834a13f1210d570734a398116ef127b42d2",
			"Chrome 93":      "11db98dd71657c790c446019fcf23defaf43d34c814607f2c9f68d1205bb324e",
			"Opera 79.0":     "5502ffd5f3599c3d1aa3bbbd8873a96467f85a4d2fef5bd4542d387639c7fb80",
			"Safari 14.03":   "593bdef5c839e67996c3a547b4f485401d547c128a5e9a00bb3ed02944b5fd45",
			"Firefox 88+ETP": "f25f5158b3d92be91218531e4fe9f09951f741256e2b5809362ad412850668e1",
			"Brave 1.29.81":  "2d9344601c27e8f06979a05a2b133a5d1f857ca21d3151a0c2983e41d54a184a",
		},
	}
	for _, c := range []struct {
		name string
		cfg  webgen.Config
	}{
		{"default", webgen.DefaultConfig()},
		{"small-seed7", webgen.SmallConfig(7)},
	} {
		eco, err := webgen.Generate(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		profiles := append([]browser.Profile{browser.Firefox88()}, countermeasure.Profiles(eco)...)
		for _, p := range profiles {
			label := p.Name + " " + p.Version
			ds, err := crawler.Run(context.Background(), eco, p, crawler.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, label, err)
			}
			var buf bytes.Buffer
			if err := ds.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[c.name][label] {
				t.Errorf("%s %s: dataset sha256 = %s, want %s", c.name, label, got, want[c.name][label])
			}
		}
	}
}
