// Package wal implements the append-only segmented write-ahead log under
// the hybrid index's op journal, the one durability mechanism. Records are
// opaque byte payloads framed as
//
//	u32 payload length | u32 CRC-32C over (length bytes ‖ payload) | payload
//
// in little-endian, appended to numbered segment files ("000001.wal"). A
// single committer goroutine drains enqueued records into the current
// segment and fsyncs once per batch — group commit: every writer blocked in
// Ack.Wait for that batch is acked by one fsync, so the fsync cost
// amortizes across concurrent writers. Segments rotate at a size threshold
// (or on demand, which is how the journal ties a BulkLoad reset to a WAL
// position), and DeleteBelow truncates the log once the state it covers is
// durable elsewhere.
//
// Replay tolerates a torn tail: it applies records in segment order and
// stops at the first frame that is short, oversized, or fails its CRC —
// which, under the vfs crash model, is always at or after the last synced
// (acked) record, never behind it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path"
	"sync"
	"time"

	"mets/internal/obs"
	"mets/internal/vfs"
)

// SegmentExt is the WAL segment file suffix.
const SegmentExt = ".wal"

// frameHeaderLen is the per-record framing overhead.
const frameHeaderLen = 8

// MaxRecordBytes bounds a single record (and, during replay, rejects
// absurd lengths decoded from a corrupt frame before any allocation).
const MaxRecordBytes = 1 << 26 // 64 MB

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncMode selects the durability contract of Ack.Wait.
type SyncMode int

const (
	// SyncEach acks a record only after the fsync of the batch containing
	// it: an acked write survives any crash. Concurrent writers still
	// share fsyncs (the committer batches whatever queued while the
	// previous fsync ran). The durable default.
	SyncEach SyncMode = iota
	// SyncNone acks as soon as the record is written to the OS (no fsync):
	// a crash may lose acked records. Sync/StartSync remain available as
	// explicit barriers.
	SyncNone
)

// Options configures Open.
type Options struct {
	FS  vfs.FS // nil = vfs.OS{}
	Dir string // segment directory (created if missing)
	// SegmentBytes is the rotation threshold (default 4 MB).
	SegmentBytes int64
	// Mode is the ack durability contract (default SyncEach).
	Mode SyncMode
	// Obs hooks the log into a metrics registry under "wal.": appended
	// records/bytes, fsyncs, barriers answered without one (syncs_elided),
	// rotations, and a group-commit latency histogram (enqueue → durable,
	// i.e. what a committed writer actually waits) that sees every ack. The
	// ring gets a "wal.batch" record (records, bytes, write_ns, fsync_ns)
	// only for a batch holding the slowest commit so far — the one the
	// histogram's exemplar points at. Nil disables instrumentation.
	Obs *obs.Registry
	// FlightRec receives structured lifecycle events (rotations, the first
	// sticky error). Nil falls back to Obs's recorder, so it only needs
	// setting when the owner keeps a recorder without a registry (the
	// always-on durable engines).
	FlightRec *obs.FlightRecorder
}

// Ack is one record's durability promise.
type Ack struct {
	seq  uint64 // 1-based enqueue index of the record
	done chan struct{}
	err  error
	t0   time.Time
}

// Wait blocks until the record is durable per the log's SyncMode and
// returns the write/sync error, if any.
func (a *Ack) Wait() error {
	<-a.done
	return a.err
}

// Ready is the non-blocking probe: done reports whether the ack has
// resolved, and err is its verdict when it has. Fire-and-forget callers
// (the hybrid op journal) use it to notice a sticky failure — a failed log
// resolves acks immediately — without ever blocking on a healthy one.
func (a *Ack) Ready() (err error, done bool) {
	select {
	case <-a.done:
		return a.err, true
	default:
		return nil, false
	}
}

// Log is a segmented write-ahead log. Enqueue is cheap and safe to call
// under a caller-side mutex; the committer goroutine does all file I/O.
type Log struct {
	fs    vfs.FS
	dir   string
	limit int64
	mode  SyncMode

	mu      sync.Mutex
	cond    *sync.Cond // committer wakeup
	pending []pendingRec
	synchs  []*Barrier
	rotates []*rotateReq
	closing bool
	closed  chan struct{}
	err     error // sticky: first write/sync failure kills the log

	enqSeq    uint64 // records enqueued
	syncedSeq uint64 // highest record sequence covered by an fsync

	// writtenSeq is the highest record sequence written to a segment file.
	// Only the committer touches it; writtenSeq > syncedSeq means the files
	// hold bytes no fsync has covered yet.
	writtenSeq uint64

	seg     uint64   // current segment sequence number
	segFile vfs.File // current segment handle
	segSize int64

	obsAppends *obs.Counter
	obsBytes   *obs.Counter
	obsFsyncs  *obs.Counter
	obsElided  *obs.Counter
	obsRotates *obs.Counter
	obsCommit  *obs.Histogram // group-commit latency (enqueue → ack)
	obsSpans   *obs.Registry  // "wal."-prefixed view for the slowest batch's span
	fr         *obs.FlightRecorder
}

type pendingRec struct {
	rec []byte
	tag string // slow-op exemplar tag (key prefix); "" when untagged
	ack *Ack
}

// Barrier is the wait handle of one StartSync call.
type Barrier struct {
	done chan struct{} // nil when the barrier resolved inside StartSync
	err  error
}

// Wait blocks until every record enqueued before the StartSync call is
// covered by an fsync, and returns the write/sync error, if any.
func (b *Barrier) Wait() error {
	if b.done != nil {
		<-b.done
	}
	return b.err
}

// cleanBarrier is what StartSync hands out when there is nothing to wait
// for; it is never written to.
var cleanBarrier = &Barrier{}

type rotateReq struct {
	done   chan struct{}
	sealed uint64
	err    error
}

// SegmentName returns the file name of segment seq.
func SegmentName(seq uint64) string { return vfs.SegmentedName(seq, SegmentExt) }

// ListSegments returns the segment sequence numbers present in dir,
// ascending.
func ListSegments(fs vfs.FS, dir string) ([]uint64, error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, n := range names {
		if seq, ok := vfs.ParseSegmentedName(n, SegmentExt); ok {
			segs = append(segs, seq)
		}
	}
	return segs, nil
}

// Open creates a log writing to a fresh segment numbered one past the
// highest existing segment in dir (existing segments are left for Replay
// and DeleteBelow). The committer goroutine starts immediately.
func Open(o Options) (*Log, error) {
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if err := o.FS.MkdirAll(o.Dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", o.Dir, err)
	}
	segs, err := ListSegments(o.FS, o.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", o.Dir, err)
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	l := &Log{
		fs:     o.FS,
		dir:    o.Dir,
		limit:  o.SegmentBytes,
		mode:   o.Mode,
		closed: make(chan struct{}),
		seg:    next,
	}
	l.cond = sync.NewCond(&l.mu)
	if r := o.Obs; r != nil {
		w := r.Sub("wal.")
		l.obsAppends = w.Counter("appends")
		l.obsBytes = w.Counter("bytes")
		l.obsFsyncs = w.Counter("fsyncs")
		l.obsElided = w.Counter("syncs_elided")
		l.obsRotates = w.Counter("rotations")
		l.obsCommit = w.Histogram("group_commit")
		l.obsSpans = w
	}
	l.fr = o.FlightRec
	if l.fr == nil {
		l.fr = o.Obs.FlightRecorder()
	}
	f, err := l.fs.Create(path.Join(l.dir, SegmentName(l.seg)))
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	l.segFile = f
	go l.commitLoop()
	return l, nil
}

// Enqueue stages rec for the committer and returns its Ack. The record
// contents are captured by reference; callers must not mutate rec
// afterwards. Safe (and intended) to call under a caller mutex so that WAL
// order matches in-memory apply order; do the blocking Wait after
// unlocking.
func (l *Log) Enqueue(rec []byte) *Ack { return l.EnqueueTagged(rec, "") }

// EnqueueTagged is Enqueue with a short human-readable tag (e.g. the op's
// key prefix). If this record turns out to be the slowest commit seen, the
// tag lands in the group-commit histogram's exemplar, pointing the p99
// reader at a concrete op.
func (l *Log) EnqueueTagged(rec []byte, tag string) *Ack {
	a := &Ack{done: make(chan struct{})}
	if l.obsCommit != nil {
		a.t0 = time.Now()
	}
	l.mu.Lock()
	if l.err != nil || l.closing {
		err := l.err
		if err == nil {
			err = ErrClosed
		}
		l.mu.Unlock()
		a.err = err
		close(a.done)
		return a
	}
	l.enqSeq++
	a.seq = l.enqSeq
	l.pending = append(l.pending, pendingRec{rec: rec, tag: tag, ack: a})
	l.cond.Signal()
	l.mu.Unlock()
	return a
}

// Append is Enqueue + Wait.
func (l *Log) Append(rec []byte) error { return l.Enqueue(rec).Wait() }

// Sync blocks until every record enqueued so far is written and fsynced —
// an explicit durability barrier valid in every mode, including SyncNone.
func (l *Log) Sync() error { return l.StartSync().Wait() }

// StartSync is the non-blocking half of Sync: it asks the committer to cover
// every record enqueued so far with an fsync and returns the handle to wait
// on, so a caller holding several logs can have them all syncing before it
// waits for any. When every enqueued record is already covered — nothing was
// enqueued since the last fsync — the barrier is resolved on the spot and no
// file is touched: an fsync then could make nothing durable that is not
// durable already. A failed or closed log resolves it with that error.
func (l *Log) StartSync() *Barrier {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return &Barrier{err: l.err}
	}
	if l.closing {
		return &Barrier{err: ErrClosed}
	}
	if l.syncedSeq == l.enqSeq {
		l.obsElided.Inc()
		return cleanBarrier
	}
	b := &Barrier{done: make(chan struct{})}
	l.synchs = append(l.synchs, b)
	l.cond.Signal()
	return b
}

// Rotate seals the current segment — every record enqueued before the call
// is written and fsynced into segments <= the returned sequence — and
// starts a fresh one. Callers must not race Rotate with Enqueue for
// records whose covering state depends on the rotation point (the hybrid
// journal calls both under its index's writer lock).
func (l *Log) Rotate() (sealed uint64, err error) {
	l.mu.Lock()
	if l.err != nil {
		defer l.mu.Unlock()
		return 0, l.err
	}
	if l.closing {
		defer l.mu.Unlock()
		return 0, ErrClosed
	}
	r := &rotateReq{done: make(chan struct{})}
	l.rotates = append(l.rotates, r)
	l.cond.Signal()
	l.mu.Unlock()
	<-r.done
	return r.sealed, r.err
}

// DeleteBelow removes every segment with sequence < minKeep. Called once
// the records below minKeep are covered elsewhere (the journal's BulkLoad
// reset); a failure leaves harmless garbage that the next successful call
// removes.
func (l *Log) DeleteBelow(minKeep uint64) error {
	segs, err := ListSegments(l.fs, l.dir)
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if seq >= minKeep {
			break
		}
		l.mu.Lock()
		cur := l.seg
		l.mu.Unlock()
		if seq == cur {
			break // never the live segment
		}
		if err := l.fs.Remove(path.Join(l.dir, SegmentName(seq))); err != nil {
			return err
		}
	}
	return nil
}

// Seq returns the current (live) segment sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// Err returns the sticky error, if the log has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close drains pending records (with a final fsync when any written record
// is not covered by one yet), stops the committer, and closes the segment
// file.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		<-l.closed
		return l.err
	}
	l.closing = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.closed
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.segFile != nil {
		l.segFile.Close()
		l.segFile = nil
	}
	return l.err
}

// commitLoop is the single committer: it steals the pending batch, writes
// each record (rotating mid-batch when the segment fills), fsyncs once,
// and completes the batch's acks and any barrier requests.
func (l *Log) commitLoop() {
	defer close(l.closed)
	for {
		l.mu.Lock()
		for len(l.pending) == 0 && len(l.synchs) == 0 && len(l.rotates) == 0 && !l.closing {
			l.cond.Wait()
		}
		if l.closing && len(l.pending) == 0 && len(l.synchs) == 0 && len(l.rotates) == 0 {
			// Final fsync so buffered bytes of SyncNone-mode records are not
			// lost by a clean Close.
			if l.err == nil && l.writtenSeq > l.syncedSeq {
				if err := l.segFile.Sync(); err == nil {
					l.obsFsyncs.Inc()
					l.syncedSeq = l.writtenSeq
				}
			}
			l.mu.Unlock()
			return
		}
		batch := l.pending
		l.pending = nil
		synchs := l.synchs
		l.synchs = nil
		rotates := l.rotates
		l.rotates = nil
		err := l.err
		l.mu.Unlock()

		// Every ack in the batch is observed under this span's ID, and the
		// span is ended — becomes a record — only if one of them is the
		// slowest commit so far: a slow Put's exemplar resolves to the batch
		// (and fsync) it actually waited on, and a commit like any other
		// leaves the ring to the lifecycle.
		var sp *obs.Span
		if l.obsSpans != nil && len(batch) > 0 {
			sp = l.obsSpans.StartSpan("batch")
			sp.Phase("write")
		}
		var wrote int64
		if err == nil {
			for _, p := range batch {
				if err = l.writeRecord(p.rec); err != nil {
					break
				}
				l.writtenSeq = p.ack.seq
				wrote += int64(frameHeaderLen + len(p.rec))
			}
		}
		// A barrier that found every written record already covered (it was
		// queued while the fsync covering them ran) needs no fsync of its own.
		dirty := l.writtenSeq > l.syncedSeq
		needSync := dirty && (l.mode != SyncNone || len(synchs) > 0 || len(rotates) > 0)
		if err == nil && needSync {
			sp.Phase("fsync")
			if serr := l.segFile.Sync(); serr != nil {
				err = serr
			} else {
				l.mu.Lock()
				l.syncedSeq = l.writtenSeq
				l.mu.Unlock()
				l.obsFsyncs.Inc()
			}
		}
		for _, r := range rotates {
			if err == nil {
				r.sealed = l.seg
				err = l.openNextSegment()
			}
			r.err = err
			close(r.done)
		}

		l.mu.Lock()
		if err != nil && l.err == nil {
			l.err = err
			l.fr.Record("wal.error", obs.Str("err", err.Error()))
		}
		l.mu.Unlock()

		now := time.Now()
		slowest := false
		for _, p := range batch {
			p.ack.err = err
			close(p.ack.done)
			l.obsAppends.Inc()
			// A nil histogram took no t0 at enqueue and observes nothing.
			if l.obsCommit.ObserveExemplar(now.Sub(p.ack.t0).Nanoseconds(), sp.ID(), p.tag) {
				slowest = true
			}
		}
		if slowest {
			sp.Annotate(obs.I64("records", int64(len(batch))), obs.I64("bytes", wrote))
			sp.End()
		}
		l.obsBytes.Add(wrote)
		if err == nil && !dirty {
			l.obsElided.Add(int64(len(synchs)))
		}
		for _, b := range synchs {
			b.err = err
			close(b.done)
		}
	}
}

// writeRecord frames and writes one record, rotating first when the
// current segment is full. Only the committer calls it.
func (l *Log) writeRecord(rec []byte) error {
	if int64(len(rec)) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(rec))
	}
	if l.segSize > 0 && l.segSize+int64(frameHeaderLen+len(rec)) > l.limit {
		// Mid-batch rotation: sync and seal the full segment, open the next.
		if err := l.segFile.Sync(); err != nil {
			return err
		}
		l.obsFsyncs.Inc()
		if err := l.openNextSegment(); err != nil {
			return err
		}
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	crc := crc32.Update(0, castagnoli, hdr[0:4])
	crc = crc32.Update(crc, castagnoli, rec)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf := make([]byte, 0, frameHeaderLen+len(rec))
	buf = append(buf, hdr[:]...)
	buf = append(buf, rec...)
	if _, err := l.segFile.Write(buf); err != nil {
		return err
	}
	l.mu.Lock()
	l.segSize += int64(len(buf))
	l.mu.Unlock()
	return nil
}

// openNextSegment closes the current segment file and creates seg+1. Only
// the committer calls it (callers have already synced the old segment).
func (l *Log) openNextSegment() error {
	l.segFile.Close()
	l.mu.Lock()
	l.seg++
	seq := l.seg
	l.segSize = 0
	l.mu.Unlock()
	f, err := l.fs.Create(path.Join(l.dir, SegmentName(seq)))
	if err != nil {
		return err
	}
	l.segFile = f
	l.obsRotates.Inc()
	l.fr.Record("wal.rotate", obs.I64("sealed", int64(seq-1)), obs.I64("next", int64(seq)))
	return nil
}
