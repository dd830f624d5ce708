package sharded

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mets/internal/hybrid"
	"mets/internal/keycodec"
	"mets/internal/vfs"
	"mets/internal/wal"
)

// TestShardedJournalReopen pins the per-shard data-dir plumbing: writes to a
// Dir-configured sharded index survive close + reopen, with each shard
// journaling under its own Dir/shardNNN subdirectory. With a codec the
// records hold encoded keys, so replay must not encode them twice.
func TestShardedJournalReopen(t *testing.T) {
	for _, codec := range []keycodec.Codec{nil, binaryCodec(t)} {
		t.Run(fmt.Sprintf("codec=%v", codec != nil), func(t *testing.T) { testJournalReopen(t, codec) })
	}
}

func testJournalReopen(t *testing.T, codec keycodec.Codec) {
	fs := vfs.NewMemFS()
	hc := hybrid.DefaultConfig()
	hc.MinDynamic = 16
	hc.MergeRatio = 2
	hc.FS = fs
	cfg := Config{Shards: 4, Hybrid: hc, Dir: "data", Codec: codec}
	s := New(cfg)
	want := map[string]uint64{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%05d", i)
		s.Insert([]byte(k), uint64(i))
		want[k] = uint64(i)
		if i%5 == 0 {
			s.Delete([]byte(k))
			delete(want, k)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Every shard directory must exist (the router spreads this
	// keyspace across all of them).
	names, err := fs.List("data")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("data dir should hold only subdirectories, saw files %v", names)
	}
	s2 := New(cfg)
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, ok := s2.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("Get(%q) = (%d,%v), want %d", k, got, ok, v)
		}
	}
}

// fixtureOps is the op stream testdata/journal_pr13 holds: the parent commit
// of the precise-barrier change (PR 13) ran it on a 4-shard index with a
// barrier after op 19, then Close. It returns the final state.
func fixtureOps(s *Index) map[string]uint64 {
	want := map[string]uint64{}
	for i := 0; i < 40; i++ {
		k := append([]byte{byte(i * 6)}, fmt.Sprintf("key-%02d", i)...)
		s.Insert(k, uint64(i))
		want[string(k)] = uint64(i)
		if i%4 == 1 {
			s.Update(k, uint64(1000+i))
			want[string(k)] = uint64(1000 + i)
		}
		if i%5 == 2 {
			s.Delete(k)
			delete(want, string(k))
		}
		if i == 19 {
			s.SyncJournals()
		}
	}
	return want
}

// TestJournalFormatUnchanged pins the on-disk format across the barrier
// change, both ways: a directory the parent commit wrote reopens with every
// op in it, and the same op stream run now writes byte-identical segments.
func TestJournalFormatUnchanged(t *testing.T) {
	const fixture = "testdata/journal_pr13"
	hc := hybrid.DefaultConfig()
	segment := func(sh int) string {
		return filepath.Join(fmt.Sprintf("shard%03d", sh), wal.SegmentName(1))
	}
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	fresh := filepath.Join(t.TempDir(), "fresh")
	s := New(Config{Shards: 4, Hybrid: hc, Dir: fresh})
	want := fixtureOps(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old") // a copy: reopening adds files
	for sh := 0; sh < 4; sh++ {
		golden := read(filepath.Join(fixture, segment(sh)))
		if got := read(filepath.Join(fresh, segment(sh))); !bytes.Equal(got, golden) {
			t.Fatalf("%s: segment bytes differ from the ones the parent commit wrote", segment(sh))
		}
		dst := filepath.Join(old, segment(sh))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, golden, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := New(Config{Shards: 4, Hybrid: hc, Dir: old})
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("parent-written directory reopened with %d entries, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := s2.Get([]byte(k)); !ok || got != v {
			t.Fatalf("parent-written directory: Get(%q) = (%d,%v), want %d", k, got, ok, v)
		}
	}
}
