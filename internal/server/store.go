// Package server implements the mets network front-end: a length-prefixed
// binary protocol (internal/wire) over TCP with per-connection request
// pipelining, one goroutine per connection that commits the writes of each
// pipelined burst with one durability barrier (concurrent connections'
// barriers share fsyncs in the shard journals' committers), and MVCC snapshot
// reads over the hybrid/sharded generation machinery.
package server

import (
	"mets/internal/index"
	"mets/internal/sharded"
	"mets/internal/wire"
)

// Op is one write in a commit: an upsert (PUT) or a delete. Values are 64-bit
// tuple pointers, as everywhere in mets.
type Op struct {
	Delete bool
	Key    []byte
	Value  uint64
}

// Snapshot is a point-in-time read view (SNAPSHOT_* ops), closed by
// Release.
type Snapshot interface {
	Get(key []byte) (uint64, bool)
	ScanN(start []byte, n int) []index.Entry
	Release()
}

// Store is the engine surface the server fronts. Every method must be safe
// for concurrent use: each connection's goroutine reads and commits on its
// own.
type Store interface {
	Get(key []byte) (uint64, bool)
	ScanN(start []byte, n int) []index.Entry
	// ApplyBatch applies the ops in order and returns one wire status per
	// op once one durability barrier covers them all. A non-nil error means
	// durability failed for the whole batch (the per-op statuses are then
	// ignored and every op is reported failed).
	ApplyBatch(ops []Op) ([]byte, error)
	Snapshot() (Snapshot, error)
	// Err is the engine's sticky failure: non-nil means writes are refused
	// for good. /healthz, the server.healthy gauge and every commit read it.
	Err() error
	Close() error
}

// ShardedStore fronts a sharded.Index: wait-free epoch reads, snapshots that
// are cuts across every shard (sharded.Index.Snapshot: a snapshot holds each
// write applied before it was taken, and each write applied before one it
// holds), and one journal barrier per batch via SyncJournals.
type ShardedStore struct {
	idx *sharded.Index
}

// NewShardedStore wraps idx (which the store takes ownership of: Close
// closes it).
func NewShardedStore(idx *sharded.Index) *ShardedStore { return &ShardedStore{idx: idx} }

// Index exposes the wrapped index (preloading, test assertions).
func (s *ShardedStore) Index() *sharded.Index { return s.idx }

func (s *ShardedStore) Get(key []byte) (uint64, bool) { return s.idx.Get(key) }

func (s *ShardedStore) ScanN(start []byte, n int) []index.Entry { return s.idx.ScanN(start, n) }

// ApplyBatch applies the ops in order (PUT = upsert) and then runs ONE
// durability barrier for the whole batch: a connection's pipelined burst of N
// writes costs one fsync per shard journal it touched, not N. SyncJournals
// starts the barrier on every shard before it waits on any, so those fsyncs
// run side by side on the journals' committers and the batch waits for the
// slowest of them; a journal the batch wrote nothing to is clean since its
// last fsync and is not touched. Connections call it concurrently, and their
// barriers meet in each journal's committer, which answers every barrier
// pending at a pass with one fsync.
func (s *ShardedStore) ApplyBatch(ops []Op) ([]byte, error) {
	statuses := make([]byte, len(ops))
	for i, op := range ops {
		if op.Delete {
			if !s.idx.Delete(op.Key) {
				statuses[i] = wire.StatusNotFound
			}
			continue
		}
		// Upsert: update a present key, insert an absent one. Both fail only
		// if another connection inserted the key between the two calls, and
		// then the key is present: update it.
		if !s.idx.Update(op.Key, op.Value) && !s.idx.Insert(op.Key, op.Value) {
			if !s.idx.Update(op.Key, op.Value) {
				statuses[i] = wire.StatusErr
			}
		}
	}
	if err := s.idx.SyncJournals(); err != nil {
		return nil, err
	}
	return statuses, nil
}

func (s *ShardedStore) Snapshot() (Snapshot, error) { return s.idx.Snapshot(), nil }

// Err is the first shard journal's sticky failure. Merge backlog is not a
// failure: it is visible through the per-shard merge_behind gauges.
func (s *ShardedStore) Err() error { return s.idx.JournalErr() }

func (s *ShardedStore) Close() error { return s.idx.Close() }
