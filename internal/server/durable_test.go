package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mets/internal/client"
	"mets/internal/dstest"
	"mets/internal/hybrid"
	"mets/internal/obs"
	"mets/internal/sharded"
	"mets/internal/vfs"
	"mets/internal/wire"
)

// newDurableSharded is the server's engine (8 shards) journaling under "data"
// on fs. A key's first byte picks its shard: 32 byte values each.
func newDurableSharded(fs vfs.FS) *ShardedStore {
	return NewShardedStore(sharded.New(sharded.Config{
		Shards: 8,
		Dir:    "data",
		Hybrid: hybrid.Config{MergeRatio: 2, MinDynamic: 1 << 20, BloomBitsPerKey: 10, FS: fs},
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

// TestShardedStoreBurstSharesOneCommit: PUTs pipelined in one write are one
// burst, committed with one ApplyBatch whose barrier syncs each journal the
// burst touched at most once, and every one of them is acked OK.
func TestShardedStoreBurstSharesOneCommit(t *testing.T) {
	fs := &vfs.SyncCounter{FS: vfs.NewMemFS()}
	st := newDurableSharded(fs)
	defer st.Close()
	reg := obs.NewRegistry()
	s := newServer(t, Config{Store: st, Obs: reg})
	defer s.Close()
	nc := pipeConn(s)
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))

	shards := []int{0, 2, 7}
	ops := opsIn(shards, 48, 0)
	var burst []byte
	for i, op := range ops {
		burst = append(burst, putFrame(uint64(i), string(op.Key), op.Value)...)
	}
	commits, syncs := reg.Counter("server.commit_batches").Load(), fs.Syncs()
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := wire.NewReader(nc, 4096)
	for range ops {
		p, err := br.Next()
		if err != nil {
			t.Fatal(err)
		}
		if id, code, body, _ := wire.ParseHeader(p); code != wire.StatusOK {
			t.Fatalf("PUT %d answered status %d %q", id, code, body)
		}
	}
	if got := reg.Counter("server.commit_batches").Load() - commits; got != 1 {
		t.Fatalf("%d pipelined PUTs took %d commits, want 1", len(ops), got)
	}
	if got := fs.Syncs() - syncs; got > int64(len(shards)) {
		t.Fatalf("%d pipelined PUTs over %d journals: %d file syncs", len(ops), len(shards), got)
	}
	for _, op := range ops {
		if v, ok := st.Get(op.Key); !ok || v != op.Value {
			t.Fatalf("acked PUT %q = (%d,%v), want %d", op.Key, v, ok, op.Value)
		}
	}
}

// TestShardedStoreConcurrentUpserts: four connections upsert each fresh key
// at the same moment, so their commits race on its Update→Insert→Update and
// their barriers meet in the journals' committers. Every PUT is acked OK, and
// each key ends up holding one of the values written to it.
func TestShardedStoreConcurrentUpserts(t *testing.T) {
	st := newDurableSharded(vfs.NewMemFS())
	addr, shutdown := startServer(t, Config{Store: st})
	defer shutdown()
	cs := make([]*client.Client, 4)
	for ci := range cs {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cs[ci] = c
	}
	ops := opsIn([]int{0, 1, 2, 3, 4, 5, 6, 7}, 200, 0)
	value := func(ci, i int) uint64 { return uint64(i)<<8 | uint64(ci+1) }
	for i, op := range ops {
		var wg sync.WaitGroup
		for ci, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.Put(op.Key, value(ci, i)); err != nil {
					t.Errorf("conn %d: PUT %q: %v", ci, op.Key, err)
				}
			}()
		}
		wg.Wait()
		v, ok := st.Get(op.Key)
		if ci := int(v&0xff) - 1; !ok || v>>8 != uint64(i) || ci < 0 || ci >= len(cs) {
			t.Fatalf("%q = (%#x,%v), want one of the values written to it", op.Key, v, ok)
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
	st := NewShardedStore(sharded.New(sharded.Config{
		Shards: 8,
		Dir:    "data",
		Obs:    reg,
		Hybrid: hybrid.Config{MergeRatio: 2, MinDynamic: 64, BloomBitsPerKey: 10, FS: mem},
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
				if _, ok := attr(ev, k); !ok {
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

// TestShardedStoreJournalFailure: one shard's journal fails its fsync under a
// served BATCH. The batch is refused as a whole — answered ERR, and
// ApplyBatch returns an error and no statuses — only after every other
// shard's barrier was awaited, so their ops are on disk; the next PUT's burst
// is answered ERR without being applied, and closing leaves no goroutine
// behind.
func TestShardedStoreJournalFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	mem := vfs.NewMemFS()
	st := newDurableSharded(mem)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if _, err := st.ApplyBatch(opsIn(all, 16, 0)); err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{Store: st})
	c := client.New(pipeConn(s))
	boom := errors.New("shard 4 device gone")
	mem.FailSyncs(func(name string) error {
		if name == "data/shard004/000001.wal" {
			return boom
		}
		return nil
	})
	ops := opsIn(all, 16, 1)
	batch := make([]client.BatchOp, len(ops))
	for i, op := range ops {
		batch[i] = client.BatchOp{Key: op.Key, Value: op.Value}
	}
	if _, err := c.Batch(batch); err == nil || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("BATCH over a failing journal = %v, want ERR with %q", err, boom)
	}
	statuses, err := st.ApplyBatch(ops)
	if !errors.Is(err, boom) || statuses != nil {
		t.Fatalf("ApplyBatch over a failed journal = (%v, %v), want (nil, %v)", statuses, err, boom)
	}
	if err := c.Put(ops[0].Key, ops[0].Value+1); err == nil || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("PUT after the journal failure = %v, want ERR with %q", err, boom)
	}
	c.Close()
	s.Close()

	// Power cut, restart: the refused batch's ops in the seven healthy
	// shards were fsynced before ApplyBatch returned, and the PUT answered
	// ERR was not applied.
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
		idx := sharded.New(sharded.Config{
			Router: router,
			Dir:    "data",
			Hybrid: hybrid.Config{MergeRatio: 2, MinDynamic: 16, BloomBitsPerKey: 10, FS: fs},
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

// attr returns ev's first attribute named key and whether it has one.
func attr(ev obs.Event, key string) (obs.Attr, bool) {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return obs.Attr{}, false
}
