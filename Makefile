GO ?= go

.PHONY: all build test vet fmt lint race bench fuzz torture torture-shard loc check clean

all: check

build:
	$(GO) build ./...

# bench/ is its own module (the root ./... never compiles it) and
# imports internal packages, so vet it too: an internal API change that
# breaks the benchmark harness fails here, not at benchmark time.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# Fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Repo-specific determinism, PII-hygiene and concurrency-safety
# analyzers (internal/analysis, DESIGN.md §8, §13): closecheck, ctxflow,
# detrand, goroleak, lockdiscipline, maporder, obskey, piilog. One pass
# over the packages in dependency order, so every package sees its
# dependencies' facts; TestRepoIsLintClean runs the same pass. Zero
# findings or the gate fails with file:line diagnostics.
lint:
	$(GO) run ./cmd/piilint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Runs the full suite, then records the streaming-pipeline comparison
# (batch vs streamed at 1/4/8 workers over the paper study, and the
# pipeline's ns and allocations per site over a 20k-site lazy universe
# at 2 workers) as test2json event lines in BENCH_pipeline.json — the
# repo's perf trajectory file.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...
	$(GO) test -json -bench '^BenchmarkPipeline$$' -benchmem -run '^$$' . > BENCH_pipeline.json
	$(GO) test -json -bench '^BenchmarkPiilint$$' -benchmem -run '^$$' ./internal/analysis/suite > BENCH_lint.json
	$(GO) test -json -bench '^BenchmarkObsOverhead$$' -benchmem -run '^$$' . > BENCH_obs.json
	$(GO) test -json -bench '^BenchmarkShardMerge$$' -benchmem -run '^$$' . > BENCH_shard.json
	$(GO) test -json -bench '^BenchmarkUniverse$$' -benchmem -run '^$$' ./internal/webgen/ > BENCH_universe.json
	$(GO) test -json -bench '^Benchmark(Scan|DetectSite)$$' -benchmem -run '^$$' ./internal/detect/ > BENCH_detect.json
	$(GO) test -json -bench '^Benchmark(BuildCandidatesDepth2|AutomatonNew)$$' -benchmem -run '^$$' ./internal/pii/ > BENCH_candidates.json
	$(GO) test -json -bench '^Benchmark(E10_Table4Blocklists|EngineMatch)$$' -benchmem -run '^$$' . ./internal/blocklist/ > BENCH_table4.json
	$(GO) test -json -bench '^Benchmark(ETLDPlusOne|CrawlTailSite)$$' -benchmem -run '^$$' ./internal/psl/ ./internal/crawler/ > BENCH_browser.json

# Short fuzz smoke over all 15 fuzzers in the module, 10s each: the
# dataset decoder, the one checkpoint line reader (leniently as a
# resume: torn-tail cut, index and domain refusals, reopen; strictly as
# a sealed shard result), the hand-written study-neutral line codec
# (differential against encoding/json both ways), the piiserve job WAL
# load (refusals leave the file as it was; a compacted store reopens to
# the same jobs, and a torn append changes none), the piiserve job-spec
# reader (never panics; a spec it accepts maps onto flags their own
# validator accepts, with the spec's only elements one for one), the
# Aho-Corasick automaton (matches and their order against a naive
# search, dense first-level rows included), the filter-list parser and
# the filter rules' literal prefilter (verdicts and deciding rules against
# evaluating every rule's regexp), the public-suffix walk (differential against the
# label-splitting oracle it replaced), the bzip2 and base58
# codecs (round trips, and base58 decoding never panics), the HAR
# parser and the pcap reader (never panics; the writer's capture of a
# fuzzed exchange reassembles to its request and response bytes).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadJSON -fuzztime 10s ./internal/crawler/
	$(GO) test -run '^$$' -fuzz FuzzOpenCheckpoint -fuzztime 10s ./internal/crawler/
	$(GO) test -run '^$$' -fuzz FuzzSiteLine -fuzztime 10s ./internal/crawler/
	$(GO) test -run '^$$' -fuzz FuzzParseResult -fuzztime 10s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzOpenStore -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzSpec -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzMatcherMatchesNaive -fuzztime 10s ./internal/ahocorasick/
	$(GO) test -run '^$$' -fuzz FuzzParseList -fuzztime 10s ./internal/blocklist/
	$(GO) test -run '^$$' -fuzz FuzzMatchAgreesWithRegexp -fuzztime 10s ./internal/blocklist/
	$(GO) test -run '^$$' -fuzz FuzzPublicSuffix -fuzztime 10s ./internal/psl/
	$(GO) test -run '^$$' -fuzz FuzzBzip2RoundTrip -fuzztime 10s ./internal/encode/
	$(GO) test -run '^$$' -fuzz FuzzBase58RoundTrip -fuzztime 10s ./internal/encode/
	$(GO) test -run '^$$' -fuzz FuzzBase58DecodeNeverPanics -fuzztime 10s ./internal/encode/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/har/
	$(GO) test -run '^$$' -fuzz FuzzPcapParse -fuzztime 10s ./internal/pcap/

# Crash-consistency torture: re-execs a checkpointing crawl subprocess,
# kills it at seeded random points (including mid-record), resumes, and
# asserts the final dataset, leaks and Tables 1/2/4 are byte-identical
# to an uninterrupted run. -short trims the kill rounds for CI.
torture:
	$(GO) test -short -timeout 300s -count=1 -run '^TestTortureCrashConsistency$$' -v .

# Sharded torture: same kill machinery, but each victim is a re-execed
# shard worker of a K-way split. Shards are killed mid-checkpoint-append,
# resumed until they complete, then the merge of their sealed
# checkpoints must be byte-identical to an uninterrupted unsharded run
# (DESIGN.md §11).
torture-shard:
	$(GO) test -short -timeout 300s -count=1 -run '^TestTortureShardedCrashConsistency$$' -v .

# Non-test Go lines outside the bench module: the size the design aim
# "the same behaviour from the least code" moves down (ROADMAP.md).
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | xargs cat | wc -l

# The gate every change must pass.
check: fmt vet lint build race
