package piileak

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"piileak/internal/crawler"
	"piileak/internal/faultsim"
	"piileak/internal/obs"
	"piileak/internal/resilience"
	"piileak/internal/shard"
	"piileak/internal/site"
)

// shardedConfig is the sharded suite's study configuration: a faulty
// small ecosystem, so shard workers exercise the resilient transport's
// retry paths while the byte-identity invariant is checked.
func shardedConfig(seed uint64) Config {
	cfg := SmallConfig(seed)
	cfg.Ecosystem.Faults = &faultsim.Config{Rate: 0.3}
	return cfg
}

// TestShardedRunsByteIdentical is the tentpole invariant at the study
// level: for K in {1, 2, 4, 8}, a supervised sharded run's leak bytes
// and Tables 1/2/4 are byte-identical to the unsharded run —
// and stay identical when shards are killed and restarted mid-study.
func TestShardedRunsByteIdentical(t *testing.T) {
	const seed = 41
	ctx := context.Background()

	ref, err := NewStudy(shardedConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx, WithWorkers(2, 2)); err != nil {
		t.Fatal(err)
	}
	want := leaksJSON(t, ref)
	wantT2, err := ref.Tracking()
	if err != nil {
		t.Fatal(err)
	}
	wantT4, err := ref.EvaluateBlocklists()
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, s *Study, rep *shard.Report) {
		t.Helper()
		if rep.Partial {
			t.Fatalf("sharded run degraded: %+v", rep)
		}
		if got := leaksJSON(t, s); !bytes.Equal(want, got) {
			t.Errorf("leak JSON diverges from unsharded run (%d vs %d bytes)", len(got), len(want))
		}
		if got, want := s.Analysis.Headline(), ref.Analysis.Headline(); got != want {
			t.Errorf("headline diverges:\n%+v\n%+v", got, want)
		}
		if !reflect.DeepEqual(s.Analysis.ByMethod(), ref.Analysis.ByMethod()) {
			t.Error("Table 1a diverges")
		}
		if !reflect.DeepEqual(s.Analysis.ByEncoding(), ref.Analysis.ByEncoding()) {
			t.Error("Table 1b diverges")
		}
		cls, err := s.Tracking()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cls, wantT2) {
			t.Error("Table 2 diverges")
		}
		t4, err := s.EvaluateBlocklists()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(t4, wantT4) {
			t.Error("Table 4 diverges")
		}
	}

	for _, k := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			s, err := NewStudy(shardedConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.RunSharded(ctx, shard.Options{
				Shards:        k,
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
			check(t, s, rep)
		})
	}

	// The kill arm: every shard's first attempt dies, one shard dies
	// twice. The supervisor restarts each from its checkpoint; the output
	// must not move by a byte.
	t.Run("K=4-with-kills", func(t *testing.T) {
		shard.WorkerFailpoint = func(sh, attempt int) error {
			if attempt == 1 || (sh == 2 && attempt == 2) {
				return fmt.Errorf("scripted kill of shard %d attempt %d", sh, attempt)
			}
			return nil
		}
		defer func() { shard.WorkerFailpoint = nil }()

		s, err := NewStudy(shardedConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		o := obs.NewRun(nil)
		rep, err := s.RunSharded(ctx, shard.Options{
			Shards:        4,
			Dir:           t.TempDir(),
			Workers:       2,
			DetectWorkers: 2,
			Clock:         resilience.NewVirtualClock(),
			Obs:           o,
			Fresh:         true,
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, rep)
		for sh := 0; sh < 4; sh++ {
			wantRestarts := 1
			if sh == 2 {
				wantRestarts = 2
			}
			if got := rep.Restarts[sh]; got != wantRestarts {
				t.Errorf("shard %d restarts = %d, want %d", sh, got, wantRestarts)
			}
		}
		m := o.Manifest()
		if m.Sharding == nil || m.Sharding.Restarts != 5 {
			t.Errorf("observer sharding manifest = %+v, want 5 restarts", m.Sharding)
		}
		if m.Run.Shards != 4 {
			t.Errorf("run info = %+v, want 4 shards", m.Run)
		}
	})

	// The scale arm: the study core plus a lazily generated 100k-site
	// ranked tail, split across 4 shards. Each worker derives only its
	// interleaved slice on demand — the materialized-site gauge must stay
	// at the shard's share of the universe, not the whole universe — and
	// the merge must still be byte-identical to the single lazy run.
	t.Run("K=4-universe-100k", func(t *testing.T) {
		const universe = 100_000
		big := SmallConfig(seed)
		big.Ecosystem.UniverseSize = universe

		bigRef, err := NewStudy(big)
		if err != nil {
			t.Fatal(err)
		}
		if err := bigRef.Run(ctx, WithWorkers(2, 2)); err != nil {
			t.Fatal(err)
		}
		wantBig := leaksJSON(t, bigRef)

		s, err := NewStudy(big)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.NewRun(nil)
		rep, err := s.RunSharded(ctx, shard.Options{
			Shards:        4,
			Dir:           t.TempDir(),
			Workers:       2,
			DetectWorkers: 2,
			Clock:         resilience.NewVirtualClock(),
			Obs:           o,
			Fresh:         true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Partial {
			t.Fatalf("sharded run degraded: %+v", rep)
		}
		if got := leaksJSON(t, s); !bytes.Equal(wantBig, got) {
			t.Errorf("leak JSON diverges from unsharded 100k run (%d vs %d bytes)", len(got), len(wantBig))
		}
		if got, want := s.Analysis.Headline(), bigRef.Analysis.Headline(); got != want {
			t.Errorf("headline diverges:\n%+v\n%+v", got, want)
		}
		if m := o.Manifest(); m.Run.Sites != universe || m.Run.Shards != 4 {
			t.Errorf("run info = %+v, want %d sites over 4 shards", m.Run, universe)
		}
		// Per-worker memory pin: no worker materialized more than its
		// interleaved share of the universe (ceil(universe/4)), within a
		// small constant for captures in flight.
		const share = (universe + 3) / 4
		if got := o.Snapshot().Gauges[obs.MetricUniverseMaterialized]; got == 0 || got > share+8 {
			t.Errorf("materialized-site gauge = %d, want within (0, %d]", got, share+8)
		}
	})
}

// BenchmarkShardMerge measures the verified merge itself: K shard
// results, already crawled and digest-verified, folded back into one
// study result. This is the fixed per-run cost sharding adds over the
// crawl, and the number BENCH_shard.json tracks.
func BenchmarkShardMerge(b *testing.B) {
	const shards = 4
	s, err := NewStudy(shardedConfig(41))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	ctx := context.Background()
	for sh := 0; sh < shards; sh++ {
		if _, err := shard.RunWorker(ctx, s.Eco, s.Config.Browser, s.Engine, shard.WorkerConfig{
			Shard: sh, Shards: shards, Dir: dir,
		}); err != nil {
			b.Fatal(err)
		}
	}
	plan, err := shard.NewPlan(s.Eco, shards)
	if err != nil {
		b.Fatal(err)
	}
	var results []*shard.Result
	for sh := 0; sh < shards; sh++ {
		r, err := shard.ReadResult(shard.ResultPath(dir, sh, shards))
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, r)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, rep, err := shard.Merge(s.Eco, s.Config.Browser, plan, results)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Partial || len(res.Leaks) != rep.Leaks {
			b.Fatalf("merge went wrong: %+v", rep)
		}
	}
}

// TestRunInfoPerRunPath pins the manifest run block each run path
// stamps through the one RunInfo builder: Run (serial, and parallel over
// a site subset with an injector override), RunSharded (the whole
// universe, K shards) and RunShardWorker (one shard's population and
// its i/K label). Fault seeds fall back from the run's injector to the
// ecosystem's.
func TestRunInfoPerRunPath(t *testing.T) {
	ctx := context.Background()
	cfg := SmallConfig(43)
	cfg.Ecosystem.Faults = &faultsim.Config{Seed: 9, Rate: 0.05}
	newStudy := func() *Study {
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	universe := newStudy().Eco.Universe().Len()
	check := func(name string, o *obs.Run, want obs.RunInfo) {
		t.Helper()
		want.EcoSeed, want.Browser = 43, "Firefox 88"
		if got := o.Manifest().Run; got != want {
			t.Errorf("%s: run info = %+v, want %+v", name, got, want)
		}
	}

	o := obs.NewRun(nil)
	if err := newStudy().Run(ctx, WithObserver(o)); err != nil {
		t.Fatal(err)
	}
	check("Run serial", o, obs.RunInfo{FaultSeed: 9, Sites: universe})

	o = obs.NewRun(nil)
	s := newStudy()
	if err := s.Run(ctx, WithObserver(o), WithWorkers(3, 2),
		WithSource(site.Slice(s.Eco.Sites[:5])), WithFaults(faultsim.New(faultsim.Config{Seed: 5, Rate: 0.05}))); err != nil {
		t.Fatal(err)
	}
	check("Run parallel subset", o, obs.RunInfo{FaultSeed: 5, Sites: 5, CrawlWorkers: 3, DetectWorkers: 2})

	o = obs.NewRun(nil)
	if _, err := newStudy().RunSharded(ctx, shard.Options{
		Shards: 2, Dir: t.TempDir(), Workers: 2, DetectWorkers: 2,
		Clock: resilience.NewVirtualClock(), Obs: o, Fresh: true,
	}); err != nil {
		t.Fatal(err)
	}
	check("RunSharded", o, obs.RunInfo{FaultSeed: 9, Sites: universe, CrawlWorkers: 2, DetectWorkers: 2, Shards: 2})

	o = obs.NewRun(nil)
	if _, err := newStudy().RunShardWorker(ctx, shard.WorkerConfig{
		Shard: 1, Shards: 2, Dir: t.TempDir(), Workers: 2, DetectWorkers: 2,
		Options: crawler.Options{Obs: o},
	}); err != nil {
		t.Fatal(err)
	}
	check("RunShardWorker", o, obs.RunInfo{
		FaultSeed: 9, Sites: universe / 2, CrawlWorkers: 2, DetectWorkers: 2, Shards: 2, Shard: "1/2",
	})
}
