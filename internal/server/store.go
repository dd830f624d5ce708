// Package server implements the mets network front-end: a length-prefixed
// binary protocol (internal/wire) over TCP with per-connection request
// pipelining, a write coalescer that funnels concurrent writes into the
// storage engine's group-commit path with one durability barrier per batch,
// admission control that sheds load (RETRY_LATER) when the engine reports
// backlog or the write queue fills, and MVCC snapshot reads over the
// hybrid/sharded generation machinery.
package server

import (
	"mets/internal/index"
	"mets/internal/sharded"
	"mets/internal/wire"
)

// Op is one write as the coalescer sees it: an upsert (PUT) or a delete.
// Values are 64-bit tuple pointers, as everywhere in mets.
type Op struct {
	Delete bool
	Key    []byte
	Value  uint64
}

// Health is the engine verdict that admission control, /healthz and the
// server.healthy/server.backlogged gauges all read.
type Health struct {
	// Healthy false means writes are refused outright (sticky journal/WAL
	// failure): the server answers ERR, not RETRY_LATER.
	Healthy bool
	Err     string
	// Backlogged means maintenance (merges, flushes) is behind; the server
	// sheds writes early instead of queueing toward the hard limit.
	Backlogged bool
}

// verdict builds a Health from an engine's sticky error and backlog.
func verdict(err error, backlogged bool) Health {
	h := Health{Healthy: err == nil, Backlogged: backlogged}
	if err != nil {
		h.Err = err.Error()
	}
	return h
}

// Snapshot is a released point-in-time read view (SNAPSHOT_* ops).
type Snapshot interface {
	Get(key []byte) (uint64, bool)
	ScanN(start []byte, n int) []index.Entry
	Release()
}

// Store is the engine surface the server fronts. Reads (Get/ScanN/Snapshot)
// must be safe concurrently with ApplyBatch; ApplyBatch itself is only ever
// called from the server's single coalescer goroutine.
type Store interface {
	Get(key []byte) (uint64, bool)
	ScanN(start []byte, n int) []index.Entry
	// ApplyBatch applies the ops in order and returns one wire status per
	// op. A non-nil error means durability failed for the whole batch (the
	// per-op statuses are then ignored and every op is reported failed).
	ApplyBatch(ops []Op) ([]byte, error)
	Snapshot() (Snapshot, error)
	Health() Health
	Close() error
}

// ShardedStore fronts a sharded.Index: wait-free epoch reads, true MVCC
// snapshots, and one journal barrier per batch via SyncJournals.
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
// durability barrier for the whole batch — the group-commit amortization: N
// coalesced writes cost one fsync per shard journal they touched, not N.
// SyncJournals starts the barrier on every shard before it waits on any, so
// those fsyncs run side by side on the journals' committers and the batch
// waits for the slowest of them; a journal the batch wrote nothing to is
// clean since its last fsync and is not touched.
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
		// if another writer inserted the key between the two calls — the
		// coalescer is the server's single writer, but Index() hands the
		// index to preloaders — and then the key is present: update it.
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

func (s *ShardedStore) Snapshot() (Snapshot, error) { return s.idx.Snapshot() }

// Health is unhealthy on a sticky shard journal failure, and backlogged once
// half the shards are past their merge trigger: transient single-shard merges
// should not shed load, a stalled merge pipeline should.
func (s *ShardedStore) Health() Health {
	shards := s.idx.NumShards()
	return verdict(s.idx.JournalErr(), shards > 0 && 2*s.idx.MergeBehind() >= shards)
}

func (s *ShardedStore) Close() error { return s.idx.Close() }
