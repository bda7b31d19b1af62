package cliflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// parse registers the shared flags on a fresh flag set and parses args
// through it, as a CLI's flag.Parse does.
func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return c
}

// TestValidate pins Validate's verdict on each input: every error it
// and validateShards name, the inputs every entry point shares, and a
// valid input per mode. want is a substring of the error; empty means
// the flags are valid.
func TestValidate(t *testing.T) {
	for _, c := range []struct {
		args string
		want string
	}{
		// Valid.
		{"", ""},
		{"-small -seed 7 -browser brave -workers 2 -detect-workers 1 -faults 0.1 -retries 3 -site-timeout 30s", ""},
		{"-browser firefox-etp -only a.example", ""},
		{"-checkpoint c -resume", ""},
		{"-quarantine q -quarantine-max 3", ""},
		{"-small -universe 1000", ""},
		{"-shards 2 -supervise -shard-dir d", ""},
		{"-shards 2 -supervise -shard-dir d -resume", ""},
		{"-shards 2 -supervise -reexec -stall-timeout 5s -max-restarts 3 -shard-dir d", ""},
		{"-shard 1/2 -shard-dir d", ""},
		{"-shards 4 -shard 3 -shard-dir d", ""},

		// Values out of range.
		{"-browser netscape", `unknown browser "netscape"`},
		{"-workers -2", "-workers -2 is negative"},
		{"-faults 1.5", "-faults 1.5 out of range [0, 1]"},
		{"-faults -0.1", "-faults -0.1 out of range [0, 1]"},
		{"-retries -1", "-retries -1 is negative"},
		{"-site-timeout -5s", "-site-timeout -5s is negative"},
		{"-quarantine-max -1", "-quarantine-max -1 is negative"},
		{"-detect-workers -1", "-detect-workers -1 is negative"},
		{"-universe -1", "-universe -1 is negative"},
		{"-small -universe 5", "-universe 5 is smaller than the 60-site study core"},
		{"-only willowlane.jp,", `-only "willowlane.jp," names an empty site domain`},
		{"-only a.example,,b.example", "names an empty site domain"},

		// Contradictions.
		{"-quarantine-max 2", "-quarantine-max needs -quarantine"},
		{"-small -universe 1000 -only a.example", "-universe and -only are contradictory"},
		{"-resume", "-resume requires -checkpoint"},

		// The shard flag algebra (validateShards and shardCoords).
		{"-shards -1", "-shards -1 is negative"},
		{"-shard x -shard-dir d", `-shard "x": want an index or i/K`},
		{"-shard 1/x -shard-dir d", `-shard "1/x": want i/K (e.g. 2/8)`},
		{"-shards 3 -shard 1/2 -shard-dir d", "-shard 1/2 disagrees with -shards 3"},
		{"-shard 1 -shard-dir d", "-shard 1 needs -shards K (or use the i/K form)"},
		{"-shard 0/0 -shard-dir d", "-shard 0/0: shard count 0 must be >= 1"},
		{"-shard 2/2 -shard-dir d", "-shard 2/2: index 2 out of range [0, 2)"},
		{"-shards 2 -shard 0 -supervise -shard-dir d", "-supervise and -shard are exclusive"},
		{"-supervise", "-supervise requires -shards"},
		{"-shards 2", "-shards 2 needs a mode"},
		{"-shard-dir d", "-shard-dir is only meaningful with -shards"},
		{"-reexec", "only meaningful with -supervise"},
		{"-stall-timeout 5s", "only meaningful with -supervise"},
		{"-max-restarts 1", "only meaningful with -supervise"},
		{"-shards 2 -supervise", "sharded runs need -shard-dir"},
		{"-shard 0/2", "sharded runs need -shard-dir"},
		{"-shards 2 -supervise -shard-dir d -only a.example", "-shards and -only are contradictory"},
		{"-shards 2 -supervise -reexec -shard-dir d -stall-timeout -1s", "-stall-timeout -1s is negative"},
		{"-shards 2 -supervise -shard-dir d -checkpoint c", "drop -checkpoint"},
		{"-shards 2 -supervise -shard-dir d -stall-timeout 5s", "-stall-timeout watches re-execed workers; add -reexec"},
		{"-shard 0/2 -shard-dir d -reexec", "supervisor flags; a -shard worker does not take them"},
		{"-shard 0/2 -shard-dir d -max-restarts 2", "supervisor flags; a -shard worker does not take them"},
	} {
		err := parse(t, strings.Fields(c.args)...).Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q: Validate() = %v, want nil", c.args, err)
		case c.want != "" && err == nil:
			t.Errorf("%q: Validate() = nil, want an error containing %q", c.args, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%q: Validate() = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// TestShardWorkerArgsRoundTrip parses the argv a supervisor builds for
// each shard's re-execed worker back through Register: the worker must
// validate, sit at its own coordinates, and run the supervisor's study
// under its browser, retry budget, site timeout, quarantine and
// parallelism, without any supervisor-only flag.
func TestShardWorkerArgsRoundTrip(t *testing.T) {
	for _, args := range []string{
		"-shards 2 -supervise -shard-dir d",
		"-small -seed 7 -browser brave -universe 1000 -workers 3 -detect-workers 2 -faults 0.1 -fault-seed 9 -retries 5 -site-timeout 1m30s " +
			"-quarantine q -quarantine-max 4 -shards 3 -supervise -reexec -stall-timeout 10s -max-restarts 1 -shard-dir d -metrics m.json",
		"-seed 0 -browser safari -shards 1 -supervise -shard-dir d -resume",
	} {
		sup := parse(t, strings.Fields(args)...)
		if err := sup.Validate(); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		for i := 0; i < sup.Shards; i++ {
			w := parse(t, sup.ShardWorkerArgs(i)...)
			if err := w.Validate(); err != nil {
				t.Errorf("%q shard %d: worker flags %q invalid: %v", args, i, sup.ShardWorkerArgs(i), err)
				continue
			}
			if shard, shards, ok := w.ShardCoords(); !ok || shard != i || shards != sup.Shards {
				t.Errorf("%q shard %d: worker coordinates %d/%d (worker %v)", args, i, shard, shards, ok)
			}
			if got, want := w.StudyConfig(), sup.StudyConfig(); !reflect.DeepEqual(got, want) {
				t.Errorf("%q shard %d: worker study config %+v, supervisor's %+v", args, i, got, want)
			}
			type knobs struct {
				Browser                string
				Workers, DetectWorkers int
				Retries                int
				SiteTimeout            string
				QuarantineDir          string
				QuarantineMax          int
				ShardDir               string
			}
			of := func(c *Common) knobs {
				return knobs{c.Browser, c.Workers, c.DetectWorkers, c.Retries, c.SiteTimeout.String(), c.QuarantineDir, c.QuarantineMax, c.ShardDir}
			}
			if got, want := of(w), of(sup); got != want {
				t.Errorf("%q shard %d: worker knobs %+v, supervisor's %+v", args, i, got, want)
			}
			if w.Supervise || w.Reexec || w.StallTimeout != 0 || w.MaxRestarts != 0 || w.Resume || w.Metrics != "" {
				t.Errorf("%q shard %d: worker argv %q carries supervisor-only flags", args, i, sup.ShardWorkerArgs(i))
			}
		}
	}
}
