package sharded

import (
	"fmt"
	"testing"

	"mets/internal/hybrid"
	"mets/internal/vfs"
)

// TestShardedStatus pins the aggregate status surface: shard count, healthy
// journals, and no shard merging or behind once every shard has merged. (The
// MergeBehind semantics are pinned in the hybrid package; this reads them
// per shard.)
func TestShardedStatus(t *testing.T) {
	fs := vfs.NewMemFS()
	hc := hybrid.DefaultConfig()
	hc.MinDynamic = 16
	hc.MergeRatio = 2
	hc.FS = fs
	s := New(Config{Shards: 4, Hybrid: hc, Dir: "data"})
	for i := 0; i < 400; i++ {
		s.Insert([]byte(fmt.Sprintf("key-%05d", i)), uint64(i))
	}
	if err := s.JournalErr(); err != nil {
		t.Fatalf("JournalErr = %v, want healthy", err)
	}
	if n := s.NumShards(); n != 4 {
		t.Fatalf("NumShards = %d, want 4", n)
	}
	s.Merge()
	s.WaitMerges()
	for i, sh := range s.shards {
		if sh.Merging() {
			t.Fatalf("post-merge: shard %d Merging, want settled", i)
		}
		if sh.MergeBehind() {
			t.Fatalf("post-merge: shard %d MergeBehind, want settled", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
