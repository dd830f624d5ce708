package oltp

import (
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
)

// This file adds snapshot read-only transactions: where ExecuteTx serializes
// every transaction — readers included — behind the partition lock (the
// H-Store execution model), ExecuteReadTx captures a hybrid.Snapshot of each
// table's primary index under one brief lock hold and then runs the
// transaction body entirely lock-free against those views. Long analytical
// scans therefore no longer stall the partition's write pipeline, which is
// the serving-path win the thesis's immutable static stages make cheap.
//
// Scope: the views resolve primary keys to tuple ids (the 64-bit "tuple
// pointers" the indexes store). Payload access is NOT snapshot-isolated —
// Table.Get/fetch mutate anti-caching state (CLOCK bits, un-eviction) and so
// still require the partition lock via ExecuteTx. Index-only reads (key
// existence, id lookups, ordered key iteration, counts) are exactly the
// read-only workload the serial path was penalizing.

// snapshotter is the primary-index capability ExecuteReadTx needs; only
// hybrid-backed tables (HybridIndex, HybridCompressedIndex) provide it.
type snapshotter interface {
	Snapshot() (*hybrid.Snapshot, error)
}

// ReadTx is a read-only transaction over per-table primary-index snapshots.
// Valid only inside its ExecuteReadTx call.
type ReadTx struct {
	views map[string]*tableView
}

type tableView struct {
	snap *hybrid.Snapshot
	// live is the serial-fallback view: the table's primary index, read
	// under the partition lock ExecuteReadTx keeps held in that mode.
	live  index.Dynamic
	codec keycodec.Codec
}

// GetID resolves a primary key to its tuple id at snapshot time.
func (tx *ReadTx) GetID(table string, key []byte) (uint64, bool) {
	v := tx.views[table]
	if v == nil {
		return 0, false
	}
	if v.codec != nil {
		key = v.codec.Encode(key)
	}
	if v.snap != nil {
		return v.snap.Get(key)
	}
	return v.live.Get(key)
}

// ScanIDs visits (key, tuple id) pairs in primary-key order from the
// smallest key >= start at snapshot time. The key is lent: valid only during
// the callback.
func (tx *ReadTx) ScanIDs(table string, start []byte, fn func(key []byte, id uint64) bool) int {
	v := tx.views[table]
	if v == nil {
		return 0
	}
	start, fn = keycodec.ScanEncoded(v.codec, start, fn)
	if v.snap != nil {
		return v.snap.Scan(start, fn)
	}
	return v.live.Scan(start, fn)
}

// ExecuteReadTx runs a read-only transaction against point-in-time primary
// index snapshots. The partition lock is held only while the snapshots are
// captured (O(dynamic stage) per table); fn then runs without any lock and
// never blocks — or is blocked by — concurrent ExecuteTx writers. Requires
// hybrid-backed primary indexes (Config.IndexType HybridIndex or
// HybridCompressedIndex); with a plain B+tree primary it falls back to
// serial execution under the partition lock, preserving semantics at the
// old cost.
func (e *Engine) ExecuteReadTx(fn func(tx *ReadTx) error) error {
	tx := &ReadTx{views: make(map[string]*tableView, len(e.tables))}
	e.mu.Lock()
	snapshotted := true
	for name, t := range e.tables {
		sn, ok := t.primary.(snapshotter)
		if !ok {
			snapshotted = false
			break
		}
		snap, err := sn.Snapshot()
		if err != nil {
			snapshotted = false
			break
		}
		tx.views[name] = &tableView{snap: snap, codec: t.codec}
	}
	if !snapshotted {
		// Serial fallback: snapshot support is absent somewhere, so run like
		// ExecuteTx — under the lock, reading the live primaries directly
		// (trivially stable while the lock is held).
		for name, t := range e.tables {
			if tx.views[name] == nil {
				tx.views[name] = &tableView{live: t.primary, codec: t.codec}
			}
		}
		defer e.mu.Unlock()
		err := fn(tx)
		for _, v := range tx.views {
			if v.snap != nil {
				v.snap.Release()
			}
		}
		if err == nil {
			e.Stats.Transactions++
			e.obsTx.Inc()
		}
		return err
	}
	e.mu.Unlock()
	err := fn(tx)
	for _, v := range tx.views {
		v.snap.Release()
	}
	if err == nil {
		// Stats field writes race other transactions' increments without the
		// lock; retake it for the tally.
		e.mu.Lock()
		e.Stats.Transactions++
		e.mu.Unlock()
		e.obsTx.Inc()
	}
	return err
}
