GO ?= go
FUZZTIME ?= 30s
# LOC_MAX is the ceiling `make loc` enforces: the non-test line count may
# only grow by a deliberate edit of this number.
LOC_MAX := 20599

.PHONY: all build vet test race tier1 loc bench obs-overhead fuzz-smoke crash-smoke server-smoke

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# tier1 is the merge gate: everything must build, vet clean (vet covers all
# packages, including internal/obs), and pass the full test suite (including
# the concurrency stress tests) under the race detector.
tier1: build vet race

# loc prints the number ROADMAP tracks: non-test Go lines per package and in
# total, outside bench/ (the benchmark is a module of its own) and testdata/
# directories (fixtures the go tool never builds), and fails when the total
# is above LOC_MAX.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' \
	  | xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
	  END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t; \
	        if (t > $(LOC_MAX)) { printf "loc: %d non-test lines is above the ceiling of %d (LOC_MAX)\n", t, $(LOC_MAX); exit 1 } }'

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# obs-overhead is the instrumentation-cost guard: the hybrid-index microbench,
# and the sharded index in the gated benchmark's lib-read configuration (HOPE
# codec instrumented), with an enabled registry must stay within 10% of the
# nil-registry (no-op) path. Run without the race detector — timing under
# -race is meaningless.
obs-overhead:
	$(GO) test -run '^TestObsOverheadGuard$$' -count=1 -v ./internal/hybrid ./internal/sharded

# fuzz-smoke gives each fuzz target a short budget of new inputs on top of
# its checked-in seed corpus. Go allows one -fuzz target per invocation, so
# each runs separately; TestFuzzSmokeNamesEveryTarget fails when a target
# is missing here.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTrieOps$$' -fuzztime $(FUZZTIME) ./internal/fst
	$(GO) test -run '^$$' -fuzz '^FuzzFSTBuildLookup$$' -fuzztime $(FUZZTIME) ./internal/fst
	$(GO) test -run '^$$' -fuzz '^FuzzStaticOps$$' -fuzztime $(FUZZTIME) ./internal/fst
	$(GO) test -run '^$$' -fuzz '^FuzzSuRFNoFalseNegatives$$' -fuzztime $(FUZZTIME) ./internal/surf
	$(GO) test -run '^$$' -fuzz '^FuzzOrderPreservation$$' -fuzztime $(FUZZTIME) ./internal/hope
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/hope
	$(GO) test -run '^$$' -fuzz '^FuzzRunDecoder$$' -fuzztime $(FUZZTIME) ./internal/hope
	$(GO) test -run '^$$' -fuzz '^FuzzCodecOrderPreserving$$' -fuzztime $(FUZZTIME) ./internal/keycodec
	$(GO) test -run '^$$' -fuzz '^FuzzCodecOrderPreservingBinary$$' -fuzztime $(FUZZTIME) ./internal/keycodec
	$(GO) test -run '^$$' -fuzz '^FuzzNodeSearchSWAR$$' -fuzztime $(FUZZTIME) ./internal/btree
	$(GO) test -run '^$$' -fuzz '^FuzzCompactOps$$' -fuzztime $(FUZZTIME) ./internal/btree
	$(GO) test -run '^$$' -fuzz '^FuzzFORRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/bits
	$(GO) test -run '^$$' -fuzz '^FuzzBlockSeek$$' -fuzztime $(FUZZTIME) ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzConcurrentOps$$' -fuzztime $(FUZZTIME) ./internal/skiplist
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplayRawSegment$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzWireRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzServerFrame$$' -fuzztime $(FUZZTIME) ./internal/server

# crash-smoke runs the durability matrix of the one durability mechanism,
# the shard op journal over internal/wal and internal/vfs, on its own: torn
# and corrupt WAL tails and their repair, the MemFS crash model, the journal
# replay tests, the barrier tests (which fsyncs a barrier may skip, and that
# a failing shard journal fails the commit), the crash harness's self-check
# (it passes a correct log store and fails one that acks before the barrier),
# and the differential crash-recovery sweep (a crash injected at every k-th
# filesystem op, in drop/torn/corrupt unsynced-byte modes) over the engine
# the server runs, driven through ShardedStore.ApplyBatch in 1-op and 8-op
# commits, with the check that the flightrec.json it leaves still holds the
# lifecycle after thousands of commits, and that a connection's pipelined
# burst of PUTs is one commit syncing each touched journal at most once — all
# under the race detector.
crash-smoke:
	$(GO) test -race -count=1 -run '^(TestTornTailStopsAtAckedPrefix|TestCorruptTailDetected|TestStickyErrorAfterCrash|TestRepairTornSegmentThenContinue|TestRepairQuarantinesUntrustedSuffix|TestBarrier.*|TestCloseSyncsUncoveredRecords)$$' ./internal/wal
	$(GO) test -race -count=1 -run '^TestMemFSCrash' ./internal/vfs
	$(GO) test -race -count=1 -run '^TestHarness(PassesCorrect|Bites)$$' ./internal/dstest
	$(GO) test -race -count=1 -run '^(TestJournal.*|TestSharded(JournalReopen|Status)|TestSyncJournals.*|TestParallelShardRecovery|TestShardOpenFailurePanicsOnCaller)$$' ./internal/hybrid ./internal/sharded
	$(GO) test -race -count=1 -run '^TestShardedStore(CrashRecovery|JournalFailure|CommitSyncsTouchedShards|LifecycleSurvivesCommits|BurstSharesOneCommit)$$' ./internal/server

# server-smoke exercises the real mets-server binary end to end, started
# with the arguments the gated benchmark passes (-engine sharded): a checked
# mixed workload over loopback TCP, /metrics, SIGTERM, "clean shutdown" (the
# goroutine-leak check); and -engine lsm must exit non-zero naming the one
# engine. It is TestServerSmoke and TestServerRejectsOtherEngines, which
# `go test ./...` runs too.
server-smoke:
	$(GO) test -run '^TestServer(Smoke|RejectsOtherEngines)$$' -count=1 ./cmd/mets-server
