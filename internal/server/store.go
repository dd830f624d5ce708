// Package server implements the mets network front-end: a length-prefixed
// binary protocol (internal/wire) over TCP with per-connection request
// pipelining, a write coalescer that funnels concurrent writes into the
// storage engine's group-commit path with one durability barrier per batch,
// admission control that sheds load (RETRY_LATER) when the engine reports
// backlog or the write queue fills, and MVCC snapshot reads over the
// hybrid/sharded generation machinery.
package server

import (
	"encoding/binary"
	"errors"

	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/lsm"
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

// ErrSnapshotsUnsupported is returned by engines without an MVCC snapshot
// path; the server maps it to STATUS_UNSUPPORTED.
var ErrSnapshotsUnsupported = errors.New("server: engine does not support snapshots")

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

// LSMStore fronts a durable lsm.DB. Values are stored as 8-byte
// little-endian payloads. Writes go through DB.ApplyBatch, whose
// apply-after-ack ordering closes the engine's documented
// read-your-failed-write window for the server path: a PUT the server
// reported failed is never visible to a subsequent GET.
type LSMStore struct {
	db *lsm.DB
}

// NewLSMStore wraps db (which the store takes ownership of).
func NewLSMStore(db *lsm.DB) *LSMStore { return &LSMStore{db: db} }

// DB exposes the wrapped engine.
func (s *LSMStore) DB() *lsm.DB { return s.db }

func (s *LSMStore) Get(key []byte) (uint64, bool) {
	b, ok := s.db.Get(key)
	if !ok || len(b) != 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}

// ScanN iterates by repeated Seek (the engine's range primitive), advancing
// the lower bound past each winning key. O(log) table probes per entry —
// adequate for the bounded scans the protocol allows, not a bulk-export
// path.
func (s *LSMStore) ScanN(start []byte, n int) []index.Entry {
	if n <= 0 {
		return nil
	}
	out := make([]index.Entry, 0, n)
	lo := start
	if lo == nil {
		lo = []byte{}
	}
	for len(out) < n {
		e, ok := s.db.Seek(lo, nil)
		if !ok {
			break
		}
		var v uint64
		if len(e.Value) == 8 {
			v = binary.LittleEndian.Uint64(e.Value)
		}
		key := append([]byte(nil), e.Key...)
		out = append(out, index.Entry{Key: key, Value: v})
		lo = keys.Next(key)
	}
	return out
}

func (s *LSMStore) ApplyBatch(ops []Op) ([]byte, error) {
	bops := make([]lsm.BatchOp, len(ops))
	for i, op := range ops {
		bops[i] = lsm.BatchOp{Delete: op.Delete, Key: op.Key}
		if !op.Delete {
			bops[i].Value = binary.LittleEndian.AppendUint64(nil, op.Value)
		}
	}
	if err := s.db.ApplyBatch(bops); err != nil {
		return nil, err
	}
	// LSM deletes are blind tombstone writes; every op acks OK.
	return make([]byte, len(ops)), nil
}

func (s *LSMStore) Snapshot() (Snapshot, error) { return nil, ErrSnapshotsUnsupported }

// Health is unhealthy on the DB's sticky error (a closed DB included), and
// backlogged while its flushes are behind (lsm.DB.Backlogged).
func (s *LSMStore) Health() Health { return verdict(s.db.Err(), s.db.Backlogged()) }

func (s *LSMStore) Close() error { return s.db.Close() }
