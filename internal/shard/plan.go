// Package shard is the sharded study runtime: a planner that
// deterministically partitions the ranked site list into K independent
// failure domains, a supervisor that runs each shard as an
// independently-checkpointed worker (in-process or re-execed) and
// restarts the ones that die or stall, and a verified merge that folds
// the per-shard outputs back into one study result.
//
// The design leans on two properties the rest of the repo already
// guarantees: fault injection is a pure function of (seed, host,
// attempt) with no cross-site state, and every accumulated aggregate is
// a set. Together they mean a site's crawl and detection output is
// byte-identical whether it ran in shard 3 of 8 or in an unsharded
// run — so merging per-site records back in global site order
// reproduces the unsharded study's leak bytes and tables exactly, for
// any K, with or without mid-run shard deaths.
//
// A shard's one file — its checkpoint, sealed into its result — pins
// its run in its header line: browser, seeds, universe, shard
// coordinates, fault settings and candidate set. That header is the
// only pin: the partition itself is written nowhere, since K and the
// universe re-derive it.
package shard

import (
	"fmt"

	"piileak/internal/webgen"
)

// Plan is the partition every worker and the merge agree on: global
// site index i lands in shard i%K at position i/K. It stores no site
// data — each shard's population is re-derived on demand through the
// shard's lazy view of the universe (interleaveSource).
type Plan struct {
	// Shards is K; Universe is the full ranked site count, including
	// any lazily generated tail.
	Shards   int
	Universe int
}

// NewPlan partitions the ecosystem's ranked universe into shards
// rank-interleaved, so every shard spans the full rank distribution
// (head-heavy sites are spread evenly, not concentrated in shard 0) and
// shard sizes differ by at most one.
func NewPlan(eco *webgen.Ecosystem, shards int) (*Plan, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: plan needs at least 1 shard, got %d", shards)
	}
	n := eco.Universe().Len()
	if n == 0 {
		return nil, fmt.Errorf("shard: ecosystem has no sites to partition")
	}
	return &Plan{Shards: shards, Universe: n}, nil
}

// Size is the number of sites shard covers, 0 outside the plan.
func (p *Plan) Size(shard int) int {
	if shard < 0 || shard >= p.Shards {
		return 0
	}
	return interleaveSource{shard: shard, shards: p.Shards}.span(p.Universe)
}

// source is shard s's sites, in the shard's own index order.
func (p *Plan) source(eco *webgen.Ecosystem, s int) interleaveSource {
	return interleaveSource{src: eco.Universe(), shard: s, shards: p.Shards}
}

// Domains derives the domain list one shard covers, in rank order —
// the merge report uses it to name the exact sites a lost shard took
// down.
func (p *Plan) Domains(eco *webgen.Ecosystem, shard int) []string {
	src := p.source(eco, shard)
	var domains []string
	for j := 0; j < src.Len(); j++ {
		domains = append(domains, src.At(j).Domain)
	}
	return domains
}
