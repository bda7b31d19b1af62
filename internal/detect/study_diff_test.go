package detect_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"piileak"
	"piileak/internal/core"
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
// Engine (batch, streamed-parallel, and sharded) are byte-identical to
// re-detecting the batch run's dataset with a freshly built oracle over
// the same candidate set and CNAME zone. If the Engine's prefilter or
// memoization ever drops or reorders a leak, this diff catches it
// regardless of which runtime mode surfaced it.
func TestEngineMatchesLegacyDetectorAcrossModes(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{11, 37, 53} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			batch, err := piileak.NewStudy(piileak.SmallConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := batch.Run(ctx); err != nil {
				t.Fatal(err)
			}

			// The legacy anchor: the old single-phase scan over the
			// exact dataset the batch run crawled.
			legacy := detect.LegacyFor(batch.Engine)
			var want []core.Leak
			for _, c := range batch.Dataset.Successes() {
				want = append(want, legacy.DetectSite(c.Domain, c.Records)...)
			}
			if len(want) == 0 {
				t.Fatal("legacy detector found no leaks; differential is vacuous")
			}
			if len(batch.Leaks) != len(want) || !reflect.DeepEqual(want, batch.Leaks) {
				t.Fatalf("batch engine output diverges from legacy detector: %d vs %d leaks",
					len(batch.Leaks), len(want))
			}
			ref := leaksJSON(t, batch)

			// Streamed-parallel: per-worker scanners over the shared engine.
			par, err := piileak.NewStudy(piileak.SmallConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := par.Run(ctx, piileak.WithStream(), piileak.WithWorkers(4, 4), piileak.WithObserver(obs.NewRun(nil))); err != nil {
				t.Fatal(err)
			}
			if got := leaksJSON(t, par); !bytes.Equal(ref, got) {
				t.Errorf("streamed-parallel leak bytes diverge from legacy-anchored batch (%d vs %d bytes)",
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
				Obs:           obs.NewRun(nil),
				Fresh:         true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Partial {
				t.Fatalf("sharded run degraded: %+v", rep)
			}
			if got := leaksJSON(t, sh); !bytes.Equal(ref, got) {
				t.Errorf("sharded leak bytes diverge from legacy-anchored batch (%d vs %d bytes)",
					len(got), len(ref))
			}
		})
	}
}
