package server

import (
	"fmt"
	"math/rand"
	"testing"

	"mets/internal/hybrid"
	"mets/internal/keys"
	"mets/internal/sharded"
	"mets/internal/vfs"
)

// BenchmarkShardedStoreApplyBatchDurable times the server's commit path —
// apply, one journal barrier, ack — on the real filesystem, for the two batch
// shapes the coalescer produces: a lone PUT (one journal dirtied) and a full
// 64-op batch of uniform keys (all eight dirtied). ns/op is per batch;
// fsyncs/op is file syncs per PUT, counted under the journals.
func BenchmarkShardedStoreApplyBatchDurable(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			fs := &vfs.SyncCounter{FS: vfs.OS{}}
			hc := hybrid.DefaultConfig()
			hc.EpochReads, hc.BackgroundMerge, hc.FS = true, true, fs
			st := NewShardedStore(sharded.NewBTree(sharded.Config{Shards: 8, Hybrid: hc, Dir: b.TempDir()}))
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
