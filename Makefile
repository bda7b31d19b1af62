GO ?= go

.PHONY: all build test vet fmt lint race bench fuzz torture torture-shard check clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Repo-specific determinism, PII-hygiene and concurrency-safety
# analyzers (internal/analysis, DESIGN.md §8, §13): closecheck, ctxflow,
# detrand, goroleak, lockdiscipline, maporder, obskey, piilog. Runs the
# parallel DAG driver with the content-keyed cache, so a warm `make
# lint` only re-analyzes packages whose source (or whose dependencies'
# facts) changed. Zero findings or the gate fails with file:line
# diagnostics.
lint:
	$(GO) run ./cmd/piilint -workers 8 -cache .lintcache ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Runs the full suite, then records the streaming-pipeline comparison
# (batch vs streamed at 1/4/8 workers) as test2json event lines in
# BENCH_pipeline.json — the repo's perf trajectory file.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...
	$(GO) test -json -bench '^BenchmarkPipeline$$' -benchmem -run '^$$' . > BENCH_pipeline.json
	$(GO) test -json -bench '^BenchmarkPiilint$$' -benchmem -run '^$$' ./internal/analysis/suite > BENCH_lint.json
	$(GO) test -json -bench '^BenchmarkWatchdog$$' -benchmem -run '^$$' . > BENCH_ctx.json
	$(GO) test -json -bench '^BenchmarkObsOverhead$$' -benchmem -run '^$$' . > BENCH_obs.json
	$(GO) test -json -bench '^BenchmarkShardMerge$$' -benchmem -run '^$$' . > BENCH_shard.json
	$(GO) test -json -bench '^BenchmarkUniverse$$' -benchmem -run '^$$' ./internal/webgen/ > BENCH_universe.json
	$(GO) test -json -bench '^Benchmark(Scan|DetectSite)$$' -benchmem -run '^$$' ./internal/detect/ > BENCH_detect.json
	$(GO) test -json -bench '^Benchmark(BuildCandidatesDepth2|AutomatonNew)$$' -benchmem -run '^$$' ./internal/pii/ > BENCH_candidates.json

# Short fuzz smoke for the dataset decoder hardening, the sharded
# runtime's plan/result readers and the Aho-Corasick automaton (matches
# and their order against a naive search).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadJSON -fuzztime 10s ./internal/crawler/
	$(GO) test -run '^$$' -fuzz FuzzParsePlan -fuzztime 10s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzParseResult -fuzztime 10s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzMatcherMatchesNaive -fuzztime 10s ./internal/ahocorasick/

# Crash-consistency torture: re-execs a checkpointing crawl subprocess,
# kills it at seeded random points (including mid-record), resumes, and
# asserts the final dataset, leaks and Tables 1/2/4 are byte-identical
# to an uninterrupted run. -short trims the kill rounds for CI.
torture:
	$(GO) test -short -timeout 300s -count=1 -run '^TestTortureCrashConsistency$$' -v .

# Sharded torture: same kill machinery, but each victim is a re-execed
# shard worker of a K-way split. Shards are killed mid-checkpoint-append,
# resumed until they complete, then the digest-verified merge must be
# byte-identical to an uninterrupted unsharded run (DESIGN.md §11).
torture-shard:
	$(GO) test -short -timeout 300s -count=1 -run '^TestTortureShardedCrashConsistency$$' -v .

# The gate every change must pass.
check: fmt vet lint build race
