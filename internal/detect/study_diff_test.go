package detect_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"piileak"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/obs"
	"piileak/internal/resilience"
	"piileak/internal/shard"
)

// leaksJSON renders a finished study's leak export.
func leaksJSON(t *testing.T, s *piileak.Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteLeaksJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineMatchesLegacyDetectorAcrossModes anchors the two-phase
// detection engine to the single-phase legacy oracle at the study
// level: for several seeds, the leaks a full run produces through the
// Engine (serial, parallel, and sharded) are byte-identical to
// detecting a crawler.Run dataset of the same ecosystem with a freshly
// built oracle over the same candidate set and CNAME zone. If the
// Engine's prefilter or memoization ever drops or reorders a leak, this
// diff catches it regardless of which runtime mode surfaced it.
func TestEngineMatchesLegacyDetectorAcrossModes(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{11, 37, 53} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			serial, err := piileak.NewStudy(piileak.SmallConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := serial.Run(ctx); err != nil {
				t.Fatal(err)
			}

			// The legacy anchor: the old single-phase scan over a full
			// crawl of the same ecosystem.
			ds, err := crawler.Run(ctx, serial.Eco, serial.Config.Browser, crawler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			legacy := detect.LegacyFor(serial.Engine)
			var want []core.Leak
			for _, c := range ds.Successes() {
				want = append(want, legacy.DetectSite(c.Domain, c.Records)...)
			}
			if len(want) == 0 {
				t.Fatal("legacy detector found no leaks; differential is vacuous")
			}
			if len(serial.Leaks) != len(want) || !reflect.DeepEqual(want, serial.Leaks) {
				t.Fatalf("serial engine output diverges from legacy detector: %d vs %d leaks",
					len(serial.Leaks), len(want))
			}
			ref := leaksJSON(t, serial)

			// Parallel: per-worker scanners over the shared engine.
			par, err := piileak.NewStudy(piileak.SmallConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := par.Run(ctx, piileak.WithWorkers(4, 4), piileak.WithObserver(obs.NewRun())); err != nil {
				t.Fatal(err)
			}
			if got := leaksJSON(t, par); !bytes.Equal(ref, got) {
				t.Errorf("parallel leak bytes diverge from the legacy-anchored serial run (%d vs %d bytes)",
					len(got), len(ref))
			}

			// Sharded: each shard builds its own engine from the same
			// config; the merged output must still match the anchor.
			sh, err := piileak.NewStudy(piileak.SmallConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sh.RunSharded(ctx, shard.Options{
				Shards:        2,
				Dir:           t.TempDir(),
				Workers:       2,
				DetectWorkers: 2,
				Clock:         resilience.NewVirtualClock(),
				Crawl:         crawler.Options{Obs: obs.NewRun()},
				Fresh:         true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Partial {
				t.Fatalf("sharded run degraded: %+v", rep)
			}
			if got := leaksJSON(t, sh); !bytes.Equal(ref, got) {
				t.Errorf("sharded leak bytes diverge from the legacy-anchored serial run (%d vs %d bytes)",
					len(got), len(ref))
			}
		})
	}
}
