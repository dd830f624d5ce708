// Op journal: the durability seam for the in-memory hybrid index. With
// Config.Dir set, every successful Insert/Update/Delete appends one record to
// a segmented write-ahead journal (internal/wal) from inside the write
// critical section, so journal order always equals apply order. New replays
// an existing journal before the index serves its first operation.
//
// The journal is buffered (wal.SyncNone): writes are acked as soon as the
// record reaches the OS, and an explicit SyncJournal / StartJournalSync (or
// Close) is the durability barrier. A crash can therefore lose a suffix of
// recent ops — never a middle — matching the prefix-durability contract the
// LSM layer pins with its fault-injection harness.
//
// Records hold keys in encoded (codec) space, the same space every stage
// uses. The codec is frozen for the index lifetime (sharded.Config panics on
// Dir+CodecTrainer for exactly this reason), so one encoded space covers the
// whole journal.
package hybrid

import (
	"encoding/binary"
	"fmt"
	"path"
	"sort"

	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/vfs"
	"mets/internal/wal"
)

// Journal record opcodes.
const (
	jopInsert = 1
	jopUpdate = 2
	jopDelete = 3
)

// jrec encodes one journal record: op byte, uvarint-framed key, and (for
// insert/update) the uvarint value.
func jrec(op byte, key []byte, value uint64) []byte {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(key))
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	if op != jopDelete {
		buf = binary.AppendUvarint(buf, value)
	}
	return buf
}

// jlog appends one op to the journal, fire-and-forget: the Ack is not
// awaited (the Insert/Update/Delete API has no error channel, and SyncNone
// acks carry no durability anyway). A write failure is not silent, though —
// the log's first error is sticky, every subsequent Enqueue is refused, and
// the failure surfaces through JournalErr, SyncJournal, and Close. Callers
// that need to know the journal is still tracking the index before the next
// barrier poll JournalErr. Callers hold the writer mutex, which fixes the
// journal order.
func (h *Index) jlog(op byte, key []byte, value uint64) {
	if h.jl == nil {
		return
	}
	a := h.jl.Enqueue(jrec(op, key, value))
	// A healthy SyncNone log resolves acks asynchronously; a failed one
	// resolves them immediately with the sticky error. The non-blocking probe
	// therefore costs nothing on the happy path but catches a sticky failure
	// on the very next op, so the postmortem dump lands while the failure is
	// fresh instead of waiting for the next SyncJournal/Close barrier.
	if err, done := a.Ready(); done && err != nil {
		h.jfail(err)
	}
}

// jfail records the journal's first sticky failure in the flight recorder
// and dumps a postmortem, exactly once. Later calls (every subsequent op
// also sees the sticky error) are no-ops.
func (h *Index) jfail(err error) {
	h.jDumpOnce.Do(func() {
		h.fr.Record("journal.error", obs.Str("err", err.Error()))
		h.dumpFlight("journal-error")
	})
}

// dumpFlight writes the flight-recorder ring to <Dir>/flightrec.json,
// best-effort: a postmortem that cannot be written (the usual case when the
// underlying FS itself is the failure) must not mask the original error.
func (h *Index) dumpFlight(reason string) {
	if h.fr == nil || h.cfg.Dir == "" {
		return
	}
	fs := h.cfg.FS
	if fs == nil {
		fs = vfs.OS{}
	}
	_ = vfs.WriteFileAtomic(fs, path.Join(h.cfg.Dir, "flightrec.json"), h.fr.DumpJSON(reason))
}

// JournalErr reports the journal's sticky failure, if any: non-nil means
// some earlier op was not journaled (disk full, I/O error) and the on-disk
// journal has diverged from the in-memory index — a reopen would replay
// only the prefix up to the failure. Nil without Config.Dir.
func (h *Index) JournalErr() error {
	if h.jl == nil {
		return nil
	}
	return h.jl.Err()
}

// jop is one decoded journal record.
type jop struct {
	op    byte
	key   []byte
	value uint64
}

// decodeJournalRecord parses one CRC-verified record.
func decodeJournalRecord(rec []byte) (jop, error) {
	if len(rec) == 0 {
		return jop{}, fmt.Errorf("hybrid: empty journal record")
	}
	op, rest := rec[0], rec[1:]
	if op != jopInsert && op != jopUpdate && op != jopDelete {
		return jop{}, fmt.Errorf("hybrid: unknown journal op %d", op)
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return jop{}, fmt.Errorf("hybrid: malformed journal key")
	}
	key := append([]byte(nil), rest[w:w+int(n)]...)
	rest = rest[w+int(n):]
	var value uint64
	if op != jopDelete {
		v, w := binary.Uvarint(rest)
		if w <= 0 {
			return jop{}, fmt.Errorf("hybrid: malformed journal value")
		}
		value = v
	}
	return jop{op: op, key: key, value: value}, nil
}

// applyJournalOp replays one op through the public API. Only successful ops
// were journaled, so the replayed op succeeds too; results are still ignored
// defensively (a reset-then-crash can leave a prefix whose tail ops no longer
// apply cleanly, and replay must take what it can).
func (h *Index) applyJournalOp(o jop) {
	switch o.op {
	case jopInsert:
		if !h.Insert(o.key, o.value) {
			h.Update(o.key, o.value)
		}
	case jopUpdate:
		h.Update(o.key, o.value)
	case jopDelete:
		h.Delete(o.key)
	}
}

// journalBatchMin is the replayed-record count at which openJournal switches
// from per-op replay through the public API to the batched rebuild: fold the
// whole journal into a last-op-wins map, sort once, and build the static
// stage directly. Below it the per-op path wins (no sort, no static build
// for a handful of records). A var so the reopen benchmark and the
// differential replay test can pin either path.
var journalBatchMin = 4096

// replayJournalBatched folds the decoded records into the final per-key
// state and installs it as the initial generation: one sorted slice, one
// static-stage build, zero per-op index operations. Equivalent to the
// per-op path from an empty index: a replayed insert always sets (the
// public-API fallback turns a duplicate insert into an update), a replayed
// update sets only a present key, a delete removes it. Called from New
// before the index is shared, so the installs are plain stores.
func (h *Index) replayJournalBatched(ops []jop) error {
	m := make(map[string]uint64, len(ops))
	for _, o := range ops {
		switch o.op {
		case jopInsert:
			m[string(o.key)] = o.value
		case jopUpdate:
			if _, ok := m[string(o.key)]; ok {
				m[string(o.key)] = o.value
			}
		case jopDelete:
			delete(m, string(o.key))
		}
	}
	if len(m) == 0 {
		return nil
	}
	entries := make([]index.Entry, 0, len(m))
	for k, v := range m {
		entries = append(entries, index.Entry{Key: []byte(k), Value: v})
	}
	sort.Slice(entries, func(i, j int) bool {
		return keys.Compare(entries[i].Key, entries[j].Key) < 0
	})
	st, err := h.build(entries)
	if err != nil {
		return fmt.Errorf("hybrid: journal rebuild: %w", err)
	}
	g := h.gen.Load() // the fresh, empty, unshared initial generation
	h.gen.Store(&gen{mem: g.mem, filter: h.newFilter(len(entries) / h.cfg.MergeRatio), static: st})
	h.live.Store(int64(len(entries)))
	return nil
}

// openJournal replays cfg.Dir and opens the live journal. Called once from
// New before the index is shared; a failure panics there (New predates the
// durability option and returns no error).
func (h *Index) openJournal() error {
	fs := h.cfg.FS
	if fs == nil {
		fs = vfs.OS{}
	}
	if err := fs.MkdirAll(h.cfg.Dir); err != nil {
		return fmt.Errorf("hybrid: mkdir %s: %w", h.cfg.Dir, err)
	}
	// Decode every record first, then pick the replay strategy by volume:
	// short journals replay per op through the public API, long ones rebuild
	// the final state in one batched sort+build (replayJournalBatched) —
	// reopening a large index no longer pays a full insert path per record.
	var ops []jop
	stats, err := wal.Replay(fs, h.cfg.Dir, 0, func(rec []byte) error {
		o, err := decodeJournalRecord(rec)
		if err != nil {
			return err
		}
		ops = append(ops, o)
		return nil
	})
	if err != nil {
		return err
	}
	mode := "per-op"
	if len(ops) >= journalBatchMin {
		mode = "batched"
		if err := h.replayJournalBatched(ops); err != nil {
			return err
		}
	} else {
		// Journal keys are already encoded; disable the codec so the
		// replayed public calls do not encode twice. Not shared yet.
		codec := h.codec
		h.codec = nil
		for _, o := range ops {
			h.applyJournalOp(o)
		}
		h.codec = codec
	}
	h.JournalRecovery = stats
	replayAttrs := []obs.Attr{
		obs.I64("segments", int64(stats.Segments)),
		obs.I64("records", int64(stats.Records)),
		obs.I64("bytes", stats.Bytes),
		obs.Str("mode", mode),
	}
	if stats.Torn {
		replayAttrs = append(replayAttrs,
			obs.I64("torn_segment", int64(stats.TornSegment)),
			obs.I64("torn_offset", stats.TornOffset))
	}
	h.fr.Record("journal.replay", replayAttrs...)
	// Same repair contract as the LSM: truncate a torn tail to its valid
	// prefix before appending, so ops synced after this recovery are not
	// stranded behind the damaged frame at the next restart.
	if err := wal.Repair(fs, h.cfg.Dir, stats); err != nil {
		return err
	}
	if stats.Torn {
		h.fr.Record("journal.repair",
			obs.I64("segment", int64(stats.TornSegment)),
			obs.I64("valid_bytes", stats.TornOffset))
	}
	l, err := wal.Open(wal.Options{
		FS:        fs,
		Dir:       h.cfg.Dir,
		Mode:      wal.SyncNone,
		Obs:       h.obsReg,
		FlightRec: h.fr,
	})
	if err != nil {
		return err
	}
	h.jl = l
	// Recovery postmortem: like the LSM, the dump written right after a
	// successful replay is the artifact a crashed run leaves behind (a
	// crashed MemFS refuses writes until Recover, so failure-time dumps may
	// not land).
	h.dumpFlight("recovery")
	return nil
}

// jresetLocked restarts the journal to represent exactly the given (encoded)
// entries — the BulkLoad path. The caller holds the writer mutex, so no other
// op can interleave between the reset and the re-journal.
func (h *Index) jresetLocked(entries []index.Entry) {
	if h.jl == nil {
		return
	}
	if sealed, err := h.jl.Rotate(); err == nil {
		h.jl.DeleteBelow(sealed + 1)
	}
	for _, e := range entries {
		h.jl.Enqueue(jrec(jopInsert, e.Key, e.Value))
	}
}

// SyncJournal is the explicit durability barrier: it returns once every op
// journaled so far is fsynced. A no-op without Config.Dir.
func (h *Index) SyncJournal() error { return h.StartJournalSync().Wait() }

// JournalBarrier is the wait handle of one StartJournalSync call.
type JournalBarrier struct {
	h *Index
	b *wal.Barrier
}

// StartJournalSync is the non-blocking half of SyncJournal (see
// wal.Log.StartSync): the journal's committer starts covering every op
// journaled so far, and the caller waits on the handle — after starting the
// barriers of other indexes, if it has any. A journal with nothing new since
// its last fsync resolves at once without touching its file.
func (h *Index) StartJournalSync() JournalBarrier {
	if h.jl == nil {
		return JournalBarrier{}
	}
	return JournalBarrier{h: h, b: h.jl.StartSync()}
}

// Wait blocks until the barrier's ops are fsynced and returns the journal's
// failure, if any.
func (jb JournalBarrier) Wait() error {
	if jb.b == nil {
		return nil
	}
	err := jb.b.Wait()
	if err != nil {
		jb.h.jfail(err)
	}
	return err
}

// Close settles background merges and closes the journal (with a final fsync
// if any op is not covered by one yet), so a reopen of the same Dir replays
// the complete final state. A no-op without Config.Dir.
func (h *Index) Close() error {
	if h.jl == nil {
		return nil
	}
	h.WaitMerges()
	h.fr.Record("close")
	h.dumpFlight("close")
	err := h.jl.Close()
	if err != nil {
		h.jfail(err)
	}
	return err
}
