package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"mets/internal/dstest"
	"mets/internal/hybrid"
	"mets/internal/obs"
	"mets/internal/sharded"
	"mets/internal/vfs"
	"mets/internal/wire"
)

// newDurableSharded is the server's engine configuration (epoch reads,
// background merges, 8 shards) journaling under "data" on fs. A key's first
// byte picks its shard: 32 byte values each.
func newDurableSharded(fs vfs.FS) *ShardedStore {
	return NewShardedStore(sharded.NewBTree(sharded.Config{
		Shards: 8,
		Dir:    "data",
		Hybrid: hybrid.Config{
			MergeRatio: 2, MinDynamic: 1 << 20, BloomBitsPerKey: 10,
			EpochReads: true, BackgroundMerge: true, FS: fs,
		},
	}))
}

// opsIn builds n PUTs spread round-robin over the given shards.
func opsIn(shards []int, n, salt int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		sh := shards[i%len(shards)]
		key := append([]byte{byte(sh*32 + 1)}, fmt.Sprintf("k-%d-%d", salt, i)...)
		ops[i] = Op{Key: key, Value: uint64(salt*1000 + i)}
	}
	return ops
}

// TestShardedStoreCommitSyncsTouchedShards pins ApplyBatch's cost in file
// syncs: a batch whose ops land in k shard journals syncs exactly k files,
// however many ops it holds.
func TestShardedStoreCommitSyncsTouchedShards(t *testing.T) {
	fs := &vfs.SyncCounter{FS: vfs.NewMemFS()}
	st := newDurableSharded(fs)
	defer st.Close()
	for salt, tc := range []struct {
		shards []int
		ops    int
	}{
		{[]int{3}, 1},
		{[]int{3}, 64},
		{[]int{0, 2, 7}, 3},
		{[]int{0, 2, 7}, 64},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7}, 64},
	} {
		ops := opsIn(tc.shards, tc.ops, salt)
		before := fs.Syncs()
		statuses, err := st.ApplyBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range statuses {
			if s != wire.StatusOK {
				t.Fatalf("op %d of batch %d: status %d", i, salt, s)
			}
		}
		if got := fs.Syncs() - before; got != int64(len(tc.shards)) {
			t.Fatalf("%d ops over shards %v: %d file syncs, want %d", tc.ops, tc.shards, got, len(tc.shards))
		}
	}
}

// TestShardedStoreLifecycleSurvivesCommits: the postmortem a durable engine
// leaves behind still tells its lifecycle after thousands of commits. Every
// one-op ApplyBatch is a WAL commit on some shard; were each of them a record,
// the ring would hold nothing else within milliseconds. After 4,000 commits
// and a few merges per shard, the registry's event stream — and the
// flightrec.json a shard wrote on Close — must still hold a merge record with
// its phase durations, the merge's seal and commit events, and every shard's
// journal.replay from the open, with WAL records a minority.
func TestShardedStoreLifecycleSurvivesCommits(t *testing.T) {
	mem := vfs.NewMemFS()
	reg := obs.NewRegistry()
	st := NewShardedStore(sharded.NewBTree(sharded.Config{
		Shards: 8,
		Dir:    "data",
		Obs:    reg,
		Hybrid: hybrid.Config{
			MergeRatio: 2, MinDynamic: 64, BloomBitsPerKey: 10,
			EpochReads: true, BackgroundMerge: true, FS: mem,
		},
	}))
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < 4000; i++ {
		if _, err := st.ApplyBatch(opsIn(all[i%8:i%8+1], 1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["shard0.merges"]; n < 2 {
		t.Fatalf("shard 0 merged %d times; the test wants several merges per shard", n)
	}
	data, err := vfs.ReadFileAll(mem, "data/shard000/flightrec.json")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := obs.ParseFlightDump(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, evs := range map[string][]obs.Event{"registry": reg.Snapshot().Events, "flightrec.json": dump.Events} {
		types := map[string]int{}
		walRecords, merges := 0, 0
		for _, ev := range evs {
			types[ev.Type]++
			if strings.Contains(ev.Type, "wal.") {
				walRecords++
			}
			if !strings.HasSuffix(ev.Type, ".merge") {
				continue
			}
			merges++
			for _, k := range []string{"dur_ns", "seal_ns", "build_ns", "swap_ns"} {
				if _, ok := ev.Attr(k); !ok {
					t.Fatalf("%s: merge record without %s: %+v", name, k, ev)
				}
			}
		}
		if merges == 0 || types["merge.seal"] == 0 || types["merge.commit"] == 0 {
			t.Fatalf("%s: no merge left in the stream; have %v", name, types)
		}
		if types["journal.replay"] != 8 {
			t.Fatalf("%s: %d of the open's 8 journal.replay records survive; have %v", name, types["journal.replay"], types)
		}
		if 2*walRecords > len(evs) {
			t.Fatalf("%s: %d of %d records are WAL records; have %v", name, walRecords, len(evs), types)
		}
	}
}

// TestShardedStoreJournalFailure: one shard's journal fails its fsync. The
// batch is refused as a whole (error, no statuses) only after every other
// shard's barrier was awaited — their ops are on disk — admission control
// answers the next write with ERR, and closing leaves no goroutine behind.
func TestShardedStoreJournalFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	mem := vfs.NewMemFS()
	st := newDurableSharded(mem)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if _, err := st.ApplyBatch(opsIn(all, 16, 0)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("shard 4 device gone")
	mem.FailSyncs(func(name string) error {
		if name == "data/shard004/000001.wal" {
			return boom
		}
		return nil
	})
	ops := opsIn(all, 16, 1)
	statuses, err := st.ApplyBatch(ops)
	if !errors.Is(err, boom) || statuses != nil {
		t.Fatalf("ApplyBatch over a failing journal = (%v, %v), want (nil, %v)", statuses, err, boom)
	}

	co := newCoalescer(st, 4, 64, -1, nil)
	if got := co.admit(&writeReq{ops: ops[:1], done: func([]byte, error) {}}); got != wire.StatusErr {
		t.Fatalf("admit after the journal failure = status %d, want ERR", got)
	}
	co.close()

	// Power cut, restart: the refused batch's ops in the seven healthy
	// shards were fsynced before ApplyBatch returned.
	mem.CrashAt(1, vfs.DropUnsynced, 1)
	mem.Create("trip")
	st.Close()
	mem.FailSyncs(nil)
	mem.Recover()
	st2 := newDurableSharded(mem)
	for i, op := range ops {
		v, ok := st2.Get(op.Key)
		if sh := all[i%len(all)]; sh == 4 {
			if ok {
				t.Fatalf("op %d (shard 4) survived although its journal's fsync failed", i)
			}
		} else if !ok || v != op.Value {
			t.Fatalf("op %d (shard %d) = (%d,%v) after the restart, want %d: its barrier was not awaited", i, sh, v, ok, op.Value)
		}
	}
	st2.Close()
	waitGoroutines(t, base)
}

// crashSharded adapts a durable ShardedStore to the dstest crash harness.
// The harness's values are byte strings, the store's 64-bit: the adapter
// stores a hash and keeps the payloads in a table shared by every reopen.
type crashSharded struct {
	st   *ShardedStore
	vals map[uint64][]byte
}

func (c crashSharded) ApplyBatch(ops []dstest.CrashOp) error {
	sops := make([]Op, len(ops))
	for i, op := range ops {
		sops[i] = Op{Delete: op.Del, Key: op.Key}
		if !op.Del {
			h := fnv.New64a()
			h.Write(op.Value)
			sops[i].Value = h.Sum64()
			c.vals[sops[i].Value] = op.Value
		}
	}
	_, err := c.st.ApplyBatch(sops)
	return err
}

func (c crashSharded) Get(key []byte) ([]byte, bool) {
	v, ok := c.st.Get(key)
	if !ok {
		return nil, false
	}
	return c.vals[v], true
}

func (c crashSharded) Scan(fn func(key, value []byte) bool) {
	c.st.Index().Scan(nil, func(k []byte, v uint64) bool { return fn(k, c.vals[v]) })
}

func (c crashSharded) Close() error { return c.st.Close() }

// TestShardedStoreCrashRecovery puts the engine the server runs under the
// crash-at-every-k-th-filesystem-op harness, through the server's own commit
// path: single-op commits (strict prefix durability) and 8-op batches spread
// over all eight shard journals (every op of an acked batch recovered, the
// batch in flight recovered per key as some prefix of itself), in each damage
// mode, with two crashes per run. The router splits dstest's key shapes —
// half big-endian integers with a random third byte, half strings over a–d —
// eight ways, so a batch really does dirty several journals.
func TestShardedStoreCrashRecovery(t *testing.T) {
	router := sharded.NewRouter([][]byte{
		{0, 0, 4}, {0, 0, 8}, {0, 0, 12}, []byte("a"), []byte("b"), []byte("c"), []byte("d"),
	})
	vals := map[uint64][]byte{}
	open := func(fs *vfs.MemFS) (st dstest.CrashStore, err error) {
		// sharded.New panics when a shard journal cannot be opened.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("open: %v", p)
			}
		}()
		idx := sharded.NewBTree(sharded.Config{
			Router: router,
			Dir:    "data",
			Hybrid: hybrid.Config{
				MergeRatio: 2, MinDynamic: 16, BloomBitsPerKey: 10,
				EpochReads: true, BackgroundMerge: true, FS: fs,
			},
		})
		return crashSharded{st: NewShardedStore(idx), vals: vals}, nil
	}
	cfg := dstest.CrashConfig{Ops: 240, KeySpace: 60, Seed: 14, Step: 11, Crashes: 2,
		FlightRec: "data/shard000/flightrec.json"}
	for _, mode := range []vfs.CrashMode{vfs.DropUnsynced, vfs.TornTail, vfs.CorruptTail} {
		for _, batch := range []int{1, 8} {
			c := cfg
			c.Mode, c.Batch = mode, batch
			t.Run(fmt.Sprintf("%v/batch=%d", mode, batch), func(t *testing.T) {
				dstest.RunCrash(t, open, c)
			})
		}
	}
}
