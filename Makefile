GO ?= go
FUZZTIME ?= 30s
BENCHDATE := $(shell date +%Y%m%d)

.PHONY: all build vet test race tier1 loc bench bench-json bench-integrated bench-pause bench-putsync bench-server obs-overhead fuzz-smoke crash-smoke prom-smoke server-smoke drift-smoke

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
# total, outside bench/ (the benchmark is a module of its own).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
	  | xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
	  END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# bench-json runs the full benchmark suite and writes a machine-readable
# BENCH_<date>.json (op/s, ns/op, B/op, custom units like bytes/key) so the
# perf trajectory across PRs is diffable. Replaces committed freeform dumps.
bench-json:
	$(GO) test -bench=. -benchmem -run '^$$' ./... | $(GO) run ./cmd/benchjson -flags 'go test -bench=. -benchmem ./...' -out BENCH_$(BENCHDATE).json

# bench-integrated runs the ch6 end-to-end key-compression sweep (FST, SuRF
# and hybrid memory + p50/p99 lookup latency, codec off and per HOPE scheme)
# and captures it into the same BENCH_<date>.json artifact shape.
bench-integrated:
	$(GO) run ./cmd/mets-bench ch6.integrated | $(GO) run ./cmd/benchjson -flags 'mets-bench ch6.integrated' -out BENCH_$(BENCHDATE).json

# bench-pause captures the latency-tail artifact: the ch6 integrated sweep
# (shared names with older artifacts), the shard merge-pause experiment
# (lock vs epoch worst read pause), and the read-under-merge microbenches
# (read p99 + worst pause while a writer churns), all through benchjson into
# one BENCH_<date>.json.
bench-pause:
	( $(GO) run ./cmd/mets-bench ch6.integrated shard.pause && \
	  $(GO) test -run '^$$' -bench 'ReadUnderMerge' -benchtime 2s ./internal/hybrid/ ./internal/sharded/ ) \
	  | $(GO) run ./cmd/benchjson -flags 'mets-bench ch6.integrated shard.pause + go test -bench ReadUnderMerge -benchtime 2s' -out BENCH_$(BENCHDATE).json

# bench-putsync captures the durable write path: synced Put p50/p99 under
# group commit at 1/8/64 concurrent writers, and the served engine's commit
# (ShardedStore.ApplyBatch on the real filesystem, 1-op and 64-op batches,
# with file syncs per PUT), through benchjson into the BENCH_<date>.json
# artifact.
bench-putsync:
	( $(GO) run ./cmd/mets-bench lsm.putsync && \
	  $(GO) test -run '^$$' -bench 'ShardedStoreApplyBatchDurable' -benchtime 500x ./internal/server ) \
	  | $(GO) run ./cmd/benchjson -flags 'mets-bench lsm.putsync + go test -bench ShardedStoreApplyBatchDurable -benchtime 500x' -out BENCH_$(BENCHDATE).json

# bench-server captures the served path: YCSB A/B/C through the wire
# protocol against an in-process mets-server (pipelined connections, write
# coalescer, epoch snapshot reads), plus workload C under merge churn. Read
# p50/p99 and the worst pause land in BENCH_<date>.json via benchjson.
bench-server:
	$(GO) run ./cmd/mets-bench server.ycsb | $(GO) run ./cmd/benchjson -flags 'mets-bench server.ycsb' -out BENCH_$(BENCHDATE).json

# obs-overhead is the instrumentation-cost guard: the hybrid-index microbench,
# and the sharded index in the gated benchmark's lib-read configuration (HOPE
# codec instrumented), with an enabled registry must stay within 10% of the
# nil-registry (no-op) path. Run without the race detector — timing under
# -race is meaningless.
obs-overhead:
	$(GO) test -run '^TestObsOverheadGuard$$' -count=1 -v ./internal/hybrid ./internal/sharded

# fuzz-smoke gives each fuzz target a short budget of new inputs on top of
# its checked-in seed corpus. Go allows one -fuzz target per invocation, so
# each runs separately.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTrieOps$$' -fuzztime $(FUZZTIME) ./internal/fst
	$(GO) test -run '^$$' -fuzz '^FuzzFSTBuildLookup$$' -fuzztime $(FUZZTIME) ./internal/fst
	$(GO) test -run '^$$' -fuzz '^FuzzSuRFNoFalseNegatives$$' -fuzztime $(FUZZTIME) ./internal/surf
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/hope
	$(GO) test -run '^$$' -fuzz '^FuzzRunDecoder$$' -fuzztime $(FUZZTIME) ./internal/hope
	$(GO) test -run '^$$' -fuzz '^FuzzCodecOrderPreserving$$' -fuzztime $(FUZZTIME) ./internal/keycodec
	$(GO) test -run '^$$' -fuzz '^FuzzCodecOrderPreservingBinary$$' -fuzztime $(FUZZTIME) ./internal/keycodec
	$(GO) test -run '^$$' -fuzz '^FuzzNodeSearchSWAR$$' -fuzztime $(FUZZTIME) ./internal/btree
	$(GO) test -run '^$$' -fuzz '^FuzzCompactOps$$' -fuzztime $(FUZZTIME) ./internal/btree
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplayRawSegment$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzSSTableOpen$$' -fuzztime $(FUZZTIME) ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzWireRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzServerFrame$$' -fuzztime $(FUZZTIME) ./internal/server

# crash-smoke runs the durability matrix on its own: the differential
# crash-recovery sweep (a crash injected at every k-th filesystem op, in
# drop/torn/corrupt unsynced-byte modes), the out-of-band damage cases
# (bit-flipped table header, truncated and torn WAL segments), tombstone
# resurrection, the journal replay tests, the barrier tests (which fsyncs a
# barrier may skip, and that a failing shard journal fails the commit), and
# the same crash sweep over the engine the server runs, driven through
# ShardedStore.ApplyBatch in 1-op and 8-op commits — all under the race
# detector.
crash-smoke:
	$(GO) test -race -count=1 -run '^(TestCrashRecovery|TestCrashMatrix.*|TestTombstonesDoNotResurrect|TestDurable.*)$$' ./internal/lsm
	$(GO) test -race -count=1 -run '^(TestTornTailStopsAtAckedPrefix|TestCorruptTailDetected|TestStickyErrorAfterCrash|TestRepairTornSegmentThenContinue|TestRepairQuarantinesUntrustedSuffix|TestBarrier.*|TestCloseSyncsUncoveredRecords)$$' ./internal/wal
	$(GO) test -race -count=1 -run '^TestMemFSCrash' ./internal/vfs
	$(GO) test -race -count=1 -run '^(TestJournal.*|TestSharded(JournalReopen|DirWithTrainerPanics|Health)|TestSyncJournals.*|TestParallelShardRecovery|TestShardOpenFailurePanicsOnCaller)$$' ./internal/hybrid ./internal/sharded
	$(GO) test -race -count=1 -run '^TestShardedStore(CrashRecovery|JournalFailure|CommitSyncsTouchedShards)$$' ./internal/server

# drift-smoke closes the control loop end to end: a short drift.rollover run
# (time-series key prefix rolls over mid-run) must show the adaptive tuner
# firing a reconfiguration — codec retrain or shard rebalance — and the
# post-retrain read p99 landing within 2x of the pre-drift baseline, without
# a restart. -assert-drift makes mets-bench exit non-zero otherwise.
drift-smoke:
	$(GO) run ./cmd/mets-bench -scale 1 -queries 50000 -assert-drift drift.rollover

# prom-smoke scrapes the Prometheus exposition surface of a live shard.ycsb
# run: start mets-bench with -debug-addr, poll /metrics until a mets_-
# namespaced sample appears (or the run ends), and fail if none ever did.
# The text-format grammar itself is pinned by internal/obs's parser test;
# this checks the wiring end to end (registry -> renderer -> HTTP).
PROM_ADDR ?= 127.0.0.1:9188
prom-smoke:
	$(GO) build -o ./mets-bench.promsmoke ./cmd/mets-bench
	@./mets-bench.promsmoke -debug-addr $(PROM_ADDR) shard.ycsb >/dev/null 2>&1 & pid=$$!; \
	ok=0; \
	for i in $$(seq 1 200); do \
	  if curl -fsS -m 1 http://$(PROM_ADDR)/metrics 2>/dev/null | grep -q '^mets_'; then ok=1; break; fi; \
	  kill -0 $$pid 2>/dev/null || break; \
	  sleep 0.1; \
	done; \
	kill $$pid 2>/dev/null; \
	rm -f ./mets-bench.promsmoke; \
	if [ $$ok -eq 1 ]; then echo "prom-smoke: scraped mets_ metrics from /metrics"; else echo "prom-smoke: no mets_ samples scraped"; exit 1; fi

# server-smoke exercises the real mets-server binary end to end: start it on
# a loopback port with the debug endpoint, drive a mixed YCSB workload over
# the wire protocol with mets-bench -server-addr, scrape /metrics for
# server-namespaced samples, then SIGTERM and require the "clean shutdown"
# line. Clean shutdown is itself the goroutine-leak check: Close waits for
# every connection handler and the coalescer to exit, so a leaked goroutine
# hangs the shutdown and the timeout below fails the target.
SERVER_ADDR ?= 127.0.0.1:9189
SERVER_DEBUG_ADDR ?= 127.0.0.1:9190
server-smoke:
	$(GO) build -o ./mets-server.smoke ./cmd/mets-server
	@./mets-server.smoke -addr $(SERVER_ADDR) -debug-addr $(SERVER_DEBUG_ADDR) > server-smoke.log 2>&1 & pid=$$!; \
	ok=0; \
	for i in $$(seq 1 100); do \
	  if curl -fsS -m 1 http://$(SERVER_DEBUG_ADDR)/healthz >/dev/null 2>&1; then ok=1; break; fi; \
	  kill -0 $$pid 2>/dev/null || break; \
	  sleep 0.1; \
	done; \
	if [ $$ok -ne 1 ]; then echo "server-smoke: server never came up"; kill $$pid 2>/dev/null; rm -f ./mets-server.smoke; exit 1; fi; \
	$(GO) run ./cmd/mets-bench -server-addr $(SERVER_ADDR) -scale 1 -queries 20000 server.ycsb || { kill $$pid 2>/dev/null; rm -f ./mets-server.smoke; exit 1; }; \
	scraped=0; \
	if curl -fsS -m 2 http://$(SERVER_DEBUG_ADDR)/metrics 2>/dev/null | grep -q '^mets_server_'; then scraped=1; fi; \
	kill -TERM $$pid 2>/dev/null; \
	clean=0; \
	for i in $$(seq 1 100); do \
	  kill -0 $$pid 2>/dev/null || { grep -q '^clean shutdown' server-smoke.log && clean=1; break; }; \
	  sleep 0.1; \
	done; \
	kill -9 $$pid 2>/dev/null; \
	rm -f ./mets-server.smoke; \
	if [ $$scraped -ne 1 ]; then echo "server-smoke: no mets_server_ samples on /metrics"; cat server-smoke.log; rm -f server-smoke.log; exit 1; fi; \
	if [ $$clean -ne 1 ]; then echo "server-smoke: no clean shutdown"; cat server-smoke.log; rm -f server-smoke.log; exit 1; fi; \
	rm -f server-smoke.log; \
	echo "server-smoke: workload served, /metrics scraped, clean shutdown"
