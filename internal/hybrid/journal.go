// Op journal: the durability seam for the in-memory hybrid index, and the
// system's one durability and recovery mechanism. With
// Config.Dir set, every successful Insert/Update/Delete appends one record to
// a segmented write-ahead journal (internal/wal) from inside the write
// critical section, so journal order always equals apply order. New replays
// an existing journal before the index serves its first operation.
//
// A write returns once its record is handed to the journal's committer, and
// an explicit StartJournalSync (or Close) is the durability
// barrier. A crash can therefore lose a suffix of recent ops — never a middle
// — the prefix-durability contract that dstest.RunCrash pins with its
// fault-injection harness.
//
// Records hold keys exactly as the index was given them, the same bytes
// every stage stores. Under a sharded index with a codec those are encoded
// keys; the sharded codec is fixed when the index is built, so one encoded
// space covers the whole journal and replay hands the keys back unchanged.
//
// A BulkLoad replaces the journal's contents the same way it replaces the
// index's, and under the same prefix contract: the load is written behind the
// existing history as begin marker, one record per entry, end marker, and the
// history is deleted only once the end marker is fsynced. Replay honours a
// load only when it is complete, so a crash anywhere inside BulkLoad reopens
// to exactly the pre-load state (minus at most an unsynced suffix of it) or
// exactly the loaded entries (plus a prefix of later writes) — see
// jresetLocked and journalFold.
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

// Journal record opcodes: one record per successful write, and the three that
// frame a BulkLoad. A load entry is laid out like an insert; the two markers
// are the opcode byte alone.
const (
	jopInsert    = 1
	jopUpdate    = 2
	jopDelete    = 3
	jopLoadBegin = 4
	jopLoadEntry = 5
	jopLoadEnd   = 6
)

// jrec encodes one keyed journal record: op byte, uvarint-framed key, and
// (for all but delete) the uvarint value.
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

// jlog appends one op to the journal without waiting for it: the op is
// durable at the next barrier (StartJournalSync, Close). A write
// failure is not silent, though — the log's first error is sticky, every
// subsequent Enqueue is refused with it, and the failure surfaces through
// JournalErr, StartJournalSync, and Close. The refusal reaches jfail on the very
// next op, so the postmortem dump lands while the failure is fresh instead of
// waiting for the next barrier. Callers hold the writer mutex, which fixes the
// journal order.
func (h *Index) jlog(op byte, key []byte, value uint64) {
	if h.jl == nil {
		return
	}
	if err := h.jl.Enqueue(jrec(op, key, value)); err != nil {
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

// jop is one decoded journal record. key aliases the record's bytes.
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
	switch op {
	case jopLoadBegin, jopLoadEnd:
		if len(rest) != 0 {
			return jop{}, fmt.Errorf("hybrid: malformed journal load marker")
		}
		return jop{op: op}, nil
	case jopInsert, jopUpdate, jopDelete, jopLoadEntry:
	default:
		return jop{}, fmt.Errorf("hybrid: unknown journal op %d", op)
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return jop{}, fmt.Errorf("hybrid: malformed journal key")
	}
	key := rest[w : w+int(n)]
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

// journalFold folds a journal, record by record, into the per-key state it
// leaves behind. A replayed insert always sets (a reset-then-crash prefix can
// hold an insert of a key the prefix already has), an update sets only a
// present key, a delete removes it.
type journalFold struct {
	m map[string]uint64
	// load collects the entries of a BulkLoad whose end marker has not been
	// seen; nil outside one. The end marker makes it the whole state. Ops
	// never interleave with a load (both are journaled under the writer
	// mutex), so any other record arriving first — like the end of the
	// journal — means a crash cut the load short: it never happened.
	load map[string]uint64
}

func (f *journalFold) apply(o jop) {
	switch o.op {
	case jopLoadBegin:
		f.load = map[string]uint64{}
	case jopLoadEntry:
		if f.load != nil {
			f.load[string(o.key)] = o.value
		}
	case jopLoadEnd:
		if f.load != nil {
			f.m, f.load = f.load, nil
		}
	case jopInsert:
		f.load = nil
		f.m[string(o.key)] = o.value
	case jopUpdate:
		f.load = nil
		if _, ok := f.m[string(o.key)]; ok {
			f.m[string(o.key)] = o.value
		}
	case jopDelete:
		f.load = nil
		delete(f.m, string(o.key))
	}
}

// installReplayed makes the folded journal state the initial generation: one
// sorted slice, one static-stage build, zero per-op index operations. Called
// from New before the index is shared, so the installs are plain stores.
func (h *Index) installReplayed(m map[string]uint64) error {
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
	h.gen.Store(h.newGen(st)) // over the fresh, unshared initial generation
	h.live.Store(int64(len(entries)))
	return nil
}

// openJournal replays cfg.Dir and opens the live journal. Called once from
// New before the index is shared; a failure panics there (New predates the
// durability option and returns no error).
func (h *Index) openJournal() error {
	fold := journalFold{m: map[string]uint64{}}
	l, stats, err := wal.Recover(wal.Options{
		FS:        h.cfg.FS,
		Dir:       h.cfg.Dir,
		Obs:       h.obsReg,
		FlightRec: h.fr,
	}, func(rec []byte) error {
		o, err := decodeJournalRecord(rec)
		if err == nil {
			fold.apply(o)
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := h.installReplayed(fold.m); err != nil {
		l.Close()
		return err
	}
	h.JournalRecovery = stats
	h.jl = l
	// Recovery postmortem: the dump written right after a successful
	// replay is the artifact a crashed run leaves behind (a crashed MemFS
	// refuses writes until Recover, so failure-time dumps may not land).
	h.dumpFlight("recovery")
	return nil
}

// jresetLocked makes the journal represent exactly the given
// entries — the BulkLoad path. The caller holds the writer mutex, so no op
// interleaves with the load. The order is what makes it crash-atomic: seal
// the history (fsynced, segments <= sealed), write the framed load behind it,
// fsync through the end marker, and only then delete the history. Before that
// fsync a crash leaves the history intact and at most an unfinished load,
// which replay ignores; after it the load is complete and replay starts from
// it, whatever part of the history is still on disk in front of it. A failure
// is reported like any other journal failure and returned.
func (h *Index) jresetLocked(entries []index.Entry) error {
	if h.jl == nil {
		return nil
	}
	sealed, err := h.jl.Rotate()
	if err == nil {
		h.jl.Enqueue([]byte{jopLoadBegin})
		for _, e := range entries {
			h.jl.Enqueue(jrec(jopLoadEntry, e.Key, e.Value))
		}
		h.jl.Enqueue([]byte{jopLoadEnd})
		err = h.jl.Sync()
	}
	if err == nil {
		err = h.jl.DeleteBelow(sealed + 1)
	}
	if err != nil {
		h.jfail(err)
		return fmt.Errorf("hybrid: journal reset: %w", err)
	}
	return nil
}

// JournalBarrier is the wait handle of one StartJournalSync call.
type JournalBarrier struct {
	h *Index
	b *wal.Barrier
}

// StartJournalSync is the explicit durability barrier, split in two (see
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
