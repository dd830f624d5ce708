package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path"
	"strings"

	"mets/internal/obs"
	"mets/internal/reconfig"
	"mets/internal/vfs"
	"mets/internal/wal"
)

// ErrClosed is returned by writes against a closed DB.
var ErrClosed = errors.New("lsm: db closed")

// FlightRecName is the name of the postmortem artifact a durable DB writes
// into its data directory: the flight-recorder ring, dumped at the end of
// recovery, on the first sticky durable error, and on Close.
const FlightRecName = "flightrec.json"

// dumpFlightLocked atomically publishes the flight recorder as
// <dir>/flightrec.json. Best-effort by design (`_ =`): dumps run on failure
// paths where the filesystem may refuse writes (a crashed MemFS rejects
// everything), and a failed postmortem must never mask the original error.
// The end-of-recovery dump is the one that always lands: recovery runs on a
// healthy filesystem and its events (replay stats, repairs, quarantines) are
// the postmortem of the preceding crash.
func (db *DB) dumpFlightLocked(reason string) {
	if db.dur == nil {
		return
	}
	_ = vfs.WriteFileAtomic(db.dur.fs, path.Join(db.dur.dir, FlightRecName), db.fr.DumpJSON(reason))
}

// durableState carries everything the durable engine adds over the
// in-memory one: the FS, the data directory, the live WAL, and the WAL
// low-water mark (lowest segment recovery still needs, persisted in the
// manifest).
type durableState struct {
	fs     vfs.FS
	dir    string
	wal    *wal.Log
	walMin uint64
}

// RecoveryStats reports what OpenDurable found on disk.
type RecoveryStats struct {
	Tables      int  // table files adopted from the manifest
	Quarantined int  // corrupt table files renamed aside instead of loaded
	WALSegments int  // WAL segments replayed
	WALRecords  int  // WAL records applied to the memtable
	WALTorn     bool // replay stopped at a torn/corrupt frame
}

// WAL record encoding: op byte, then uvarint-framed key (and value for
// puts). Keys are stored in encoded (codec) space, same as the memtable.
const (
	walOpPut    = 1
	walOpDelete = 2
)

func encodeWALPut(key, value []byte) []byte {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(key)+len(value))
	buf = append(buf, walOpPut)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	buf = append(buf, value...)
	return buf
}

func encodeWALDelete(key []byte) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(key))
	buf = append(buf, walOpDelete)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	return buf
}

// walField pops one uvarint-framed field.
func walField(rec []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(rec)
	if w <= 0 || n > uint64(len(rec)-w) {
		return nil, nil, fmt.Errorf("lsm: malformed wal record field")
	}
	return rec[w : w+int(n)], rec[w+int(n):], nil
}

// applyWALRecord replays one CRC-verified record into the memtable. A
// malformed payload can only mean a writer bug (frames are checksummed), so
// it aborts recovery loudly rather than guessing.
func (db *DB) applyWALRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("lsm: empty wal record")
	}
	op, rest := rec[0], rec[1:]
	key, rest, err := walField(rest)
	if err != nil {
		return err
	}
	switch op {
	case walOpPut:
		value, _, err := walField(rest)
		if err != nil {
			return err
		}
		db.mem.put(append([]byte(nil), key...), append([]byte(nil), value...))
	case walOpDelete:
		db.mem.putRaw(append([]byte(nil), key...), tombstoneMarker)
	default:
		return fmt.Errorf("lsm: unknown wal op %d", op)
	}
	return nil
}

// recoverLocked rebuilds the DB from cfg.Dir: manifest → table files
// (corrupt ones quarantined, never fatal) → orphan GC → WAL replay into the
// memtable → a fresh WAL segment for new writes. Called once from
// OpenDurable before the DB is shared.
func (db *DB) recoverLocked(fs vfs.FS, dir string) error {
	if err := fs.MkdirAll(dir); err != nil {
		return fmt.Errorf("lsm: mkdir %s: %w", dir, err)
	}
	sp := db.obs.StartSpan("recovery")
	defer sp.End()
	sp.Phase("manifest")
	man, err := readManifest(fs, dir)
	if err != nil {
		return err
	}
	walMin := uint64(0)
	if man == nil {
		db.fr.Record("recovery.fresh", obs.Str("dir", dir))
	} else {
		db.fr.Record("recovery.manifest", obs.I64("wal_min", int64(man.walMin)),
			obs.I64("levels", int64(len(man.levels))), obs.Str("codec", man.codecID))
	}
	if man != nil {
		if man.codecID != db.codecID {
			return fmt.Errorf("lsm: data dir was written with codec %q, opened with %q",
				man.codecID, db.codecID)
		}
		walMin = man.walMin
	}

	sp.Phase("tables")
	referenced := map[string]bool{}
	maxID := uint64(0)
	if man != nil {
		for _, ids := range man.levels {
			var lvl []*SSTable
			for _, id := range ids {
				base := sstName(id)
				referenced[base] = true
				if id >= maxID {
					maxID = id + 1
				}
				name := path.Join(dir, base)
				t, err := openSSTableFile(fs, name, db.cfg.Filter)
				if err == nil && t.id != id {
					t.Close()
					err = fmt.Errorf("lsm: %s: header table id %d != manifest id %d", name, t.id, id)
				}
				if err == nil && t.codecID != db.codecID {
					t.Close()
					err = fmt.Errorf("lsm: %s: codec %q != db codec %q", name, t.codecID, db.codecID)
				}
				if err != nil {
					// Quarantine: keep the bytes for forensics, keep serving.
					// The table's records older than the bottom level are
					// simply absent; the DB stays up.
					_ = fs.Rename(name, name+corruptExt)
					db.Recovery.Quarantined++
					db.quarantined.Add(1)
					db.fr.Record("lsm.quarantine", obs.Str("file", base), obs.Str("err", err.Error()))
					continue
				}
				lvl = append(lvl, t)
				db.Recovery.Tables++
			}
			db.levels = append(db.levels, lvl)
		}
		if man.nextID > maxID {
			maxID = man.nextID
		}
	}
	db.nextID.Store(maxID)
	// GC files no live state references: orphan tables from a crashed
	// flush/compaction (built but never manifest-committed) and tmp files
	// from a crashed atomic write. Must run before any new file is created
	// so reused table ids cannot collide with stale bytes.
	names, err := fs.List(dir)
	if err != nil {
		return fmt.Errorf("lsm: list %s: %w", dir, err)
	}
	for _, n := range names {
		orphanTable := strings.HasSuffix(n, sstExt) && !referenced[n]
		tmp := strings.HasSuffix(n, ".tmp")
		if orphanTable || tmp {
			if err := fs.Remove(path.Join(dir, n)); err != nil {
				return fmt.Errorf("lsm: gc %s: %w", n, err)
			}
		}
	}

	sp.Phase("replay")
	w, stats, err := wal.Recover(wal.Options{
		FS:           fs,
		Dir:          dir,
		SegmentBytes: db.cfg.WALSegmentBytes,
		Mode:         db.cfg.WALSync,
		Obs:          db.cfg.Obs,
		FlightRec:    db.fr,
	}, walMin, "wal", db.applyWALRecord)
	if err != nil {
		return err
	}
	db.Recovery.WALSegments = stats.Segments
	db.Recovery.WALRecords = stats.Records
	db.Recovery.WALTorn = stats.Torn
	db.dur = &durableState{fs: fs, dir: dir, wal: w, walMin: walMin}
	if man == nil {
		// Stamp a fresh directory right away so a later open under a
		// different codec generation is rejected even before the first
		// flush would have written a manifest.
		if err := db.commitManifestLocked(); err != nil {
			return err
		}
	}
	// Publish the recovery story while the filesystem is known-healthy: this
	// dump is the postmortem artifact of the crash that preceded this open
	// (its last events show the torn tail, repairs, and quarantines found).
	db.dumpFlightLocked("recovery")
	return nil
}

// commitManifestLocked atomically persists the current tree shape plus the
// WAL low-water mark, publishing through the reconfiguration seam (the
// caller's db.mu is the serialization, hence the locked fast path). The
// historical "manifest.commit" event vocabulary is preserved.
func (db *DB) commitManifestLocked() error {
	m := &manifest{nextID: db.nextID.Load(), walMin: db.dur.walMin, codecID: db.codecID}
	for _, lvl := range db.levels {
		ids := make([]uint64, len(lvl))
		for i, t := range lvl {
			ids[i] = t.id
		}
		m.levels = append(m.levels, ids)
	}
	return db.seam.PublishLocked("manifest", reconfig.Prepared{
		Publish: func() error { return writeManifest(db.dur.fs, db.dur.dir, m) },
		Event:   "manifest.commit",
		Attrs: []obs.Attr{obs.I64("wal_min", int64(m.walMin)),
			obs.I64("levels", int64(len(m.levels))), obs.I64("next_id", int64(m.nextID))},
	})
}

// advanceWALLocked commits the manifest with the low-water mark raised to
// minKeep (a flushed memtable's covering segments are no longer needed) and
// then deletes the segments below it.
func (db *DB) advanceWALLocked(minKeep uint64) error {
	if minKeep > db.dur.walMin {
		db.dur.walMin = minKeep
	}
	if err := db.commitManifestLocked(); err != nil {
		return err
	}
	return db.dur.wal.DeleteBelow(db.dur.walMin)
}

// failLocked records the first hard failure; every later write observes it.
// The flight recorder dumps at the moment the error goes sticky — the ring
// still holds the events leading up to it.
func (db *DB) failLocked(err error) error {
	if db.durErr == nil {
		db.durErr = err
		db.fr.Record("durable.error", obs.Str("err", err.Error()))
		db.dumpFlightLocked("durable-error")
	}
	db.bgCond.Broadcast()
	return err
}

func (db *DB) fail(err error) {
	db.mu.Lock()
	db.failLocked(err)
	db.mu.Unlock()
}

// Err returns the DB's sticky failure, if any.
func (db *DB) Err() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.durErr
}

// maxBacklogSegments is how many WAL segments a reopen may have to replay
// before the DB reports itself backlogged.
const maxBacklogSegments = 4

// Backlogged reports that maintenance is behind the writers: a sealed
// memtable waits on the background flusher, or a reopen would replay more
// than maxBacklogSegments WAL segments (flushes are not keeping up).
func (db *DB) Backlogged() bool {
	db.mu.RLock()
	imm, dur := db.imm != nil, db.dur
	var walMin uint64
	if dur != nil {
		walMin = dur.walMin
	}
	db.mu.RUnlock()
	if imm || dur == nil {
		return imm
	}
	// Segments walMin..Seq() would all be read back by a reopen. Seq takes
	// the WAL's own mutex after db.mu is released; dur is immutable after
	// open, so there is no lock-order entanglement.
	lo, hi := max(walMin, 1), dur.wal.Seq()
	return hi >= lo && hi-lo+1 > maxBacklogSegments
}

// Sync is an explicit durability barrier: it returns once every previously
// acked write is fsynced (meaningful under WALSync=SyncNone; a no-op for an
// in-memory DB).
func (db *DB) Sync() error {
	db.mu.Lock()
	dur := db.dur
	err := db.durErr
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if dur == nil {
		return nil
	}
	return dur.wal.Sync()
}

// Close settles background work, closes the WAL (final fsync) and table
// handles, and marks the DB closed. The data directory reopens to exactly
// the closed state.
func (db *DB) Close() error {
	if db.cfg.BackgroundCompaction {
		db.WaitIdle()
	}
	db.bg.Wait()
	db.mu.Lock()
	defer db.mu.Unlock()
	first := db.durErr
	if errors.Is(first, ErrClosed) {
		return nil
	}
	if db.dur != nil {
		if err := db.dur.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, lvl := range db.levels {
		for _, t := range lvl {
			t.Close()
		}
	}
	db.fr.Record("close")
	db.dumpFlightLocked("close")
	if db.durErr == nil {
		db.durErr = ErrClosed
	}
	return first
}
