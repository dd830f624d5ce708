package server

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mets/internal/client"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/sharded"
	"mets/internal/vfs"
)

// BenchmarkShardedStoreApplyBatchDurable times the server's commit path —
// apply, one journal barrier, ack — on the real filesystem, for two burst
// shapes a connection commits: a lone PUT (one journal dirtied) and 64
// pipelined writes of uniform keys (all eight dirtied). ns/op is per commit;
// fsyncs/op is file syncs per PUT, counted under the journals.
func BenchmarkShardedStoreApplyBatchDurable(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			fs := &vfs.SyncCounter{FS: vfs.OS{}}
			hc := hybrid.DefaultConfig()
			hc.FS = fs
			st := NewShardedStore(sharded.New(sharded.Config{Shards: 8, Hybrid: hc, Dir: b.TempDir()}))
			defer st.Close()
			rng := rand.New(rand.NewSource(1))
			ops := make([]Op, n)
			syncs := fs.Syncs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ops {
					ops[j] = Op{Key: keys.Uint64(rng.Uint64()), Value: uint64(i)}
				}
				if _, err := st.ApplyBatch(ops); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(fs.Syncs()-syncs)/float64(b.N*n), "fsyncs/op")
		})
	}
}

// serveLoopback starts a server on real loopback TCP over the engine the gated
// benchmark's served workloads run (cmd/mets-server's sharded defaults: 8
// shards, no codec), bulk-loaded with n sorted 8-byte keys; key i holds i+1.
func serveLoopback(tb testing.TB, n int) (addr string, ks [][]byte) {
	tb.Helper()
	idx := sharded.New(sharded.Config{Shards: 8, Hybrid: hybrid.DefaultConfig()})
	es := make([]index.Entry, n)
	ks = make([][]byte, n)
	for i := range es {
		ks[i] = keys.Uint64(uint64(i) * (^uint64(0) / uint64(n)))
		es[i] = index.Entry{Key: ks[i], Value: uint64(i + 1)}
	}
	if err := idx.BulkLoad(es); err != nil {
		tb.Fatal(err)
	}
	addr, shutdown := startServer(tb, Config{Store: NewShardedStore(idx)})
	tb.Cleanup(shutdown)
	return addr, ks
}

// BenchmarkServedGet is a GET's full round trip — client, loopback TCP,
// dispatch, engine, and back — with the server in this process: one caller on
// its own connection (what the gated served-* workloads and a
// connection-per-thread user run), and eight callers sharing one. ns/op is
// per GET over all callers; allocs/op counts both ends.
func BenchmarkServedGet(b *testing.B) {
	addr, ks := serveLoopback(b, 200_000)
	for _, callers := range []int{1, 8} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			c, err := client.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					state := uint64(g + 1)
					for next.Add(1) <= int64(b.N) {
						state = state*2862933555777941757 + 3037000493
						i := state % uint64(len(ks))
						if v, ok, err := c.Get(ks[i]); err != nil || !ok || v != i+1 {
							b.Errorf("Get(key %d) = (%d,%v,%v)", i, v, ok, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestServedGetAllocs budgets the garbage of one served GET, both ends
// counted: the response body the client's caller leaves with, and nothing else
// — both sides parse frames in the connection's read buffer, the server seals
// responses in its write buffer, the client reuses its request frame and call
// slot, and the exemplar tag is built only when kept. It was 10 when each
// of those was its own allocation.
func TestServedGetAllocs(t *testing.T) {
	addr, ks := serveLoopback(t, 20_000)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	state := uint64(7)
	allocs := testing.AllocsPerRun(5000, func() {
		state = state*2862933555777941757 + 3037000493
		i := state % uint64(len(ks))
		if v, ok, err := c.Get(ks[i]); err != nil || !ok || v != i+1 {
			t.Fatalf("Get(key %d) = (%d,%v,%v)", i, v, ok, err)
		}
	})
	t.Logf("%.2f allocs per served GET", allocs)
	if allocs > 1 {
		t.Fatalf("%.2f allocs per served GET, budget 1", allocs)
	}
}
