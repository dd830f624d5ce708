// Package wal implements the append-only segmented write-ahead log under
// the hybrid index's op journal, the one durability mechanism. Records are
// opaque byte payloads framed as
//
//	u32 payload length | u32 CRC-32C over (length bytes ‖ payload) | payload
//
// in little-endian, appended to numbered segment files ("000001.wal").
//
// The log has one contract: Enqueue hands a record to a single committer
// goroutine, which writes it to the current segment, and the record is
// durable once a barrier — StartSync/Sync, Rotate or Close — covers it. The
// committer answers every barrier queued while it wrote with one fsync
// (group commit), and a barrier with nothing new to cover costs none.
// Segments rotate at a size threshold (or on demand, which is how the
// journal ties a BulkLoad reset to a WAL position), and DeleteBelow
// truncates the log once the state it covers is durable elsewhere.
//
// Replay tolerates a torn tail: it applies records in segment order and
// stops at the first frame that is short, oversized, or fails its CRC —
// which, under the vfs crash model, is always after the last record a
// barrier covered, never behind it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path"
	"strings"
	"sync"
	"time"

	"mets/internal/obs"
	"mets/internal/vfs"
)

// segmentExt is the WAL segment file suffix.
const segmentExt = ".wal"

// frameHeaderLen is the per-record framing overhead.
const frameHeaderLen = 8

// MaxRecordBytes bounds a single record (and, during replay, rejects
// absurd lengths decoded from a corrupt frame before any allocation).
const MaxRecordBytes = 1 << 26 // 64 MB

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options configures Open.
type Options struct {
	FS  vfs.FS // nil = vfs.OS{}
	Dir string // segment directory (created if missing)
	// SegmentBytes is the rotation threshold (default 4 MB).
	SegmentBytes int64
	// Obs hooks the log into a metrics registry under "wal.": appended
	// records/bytes, fsyncs, barriers answered without one (syncs_elided),
	// rotations, and a group-commit latency histogram (StartSync → resolved,
	// i.e. what a committed writer actually waits) that sees every barrier
	// the committer answers. The ring gets a "wal.batch" record (records,
	// bytes, write_ns, fsync_ns) only for a pass holding the slowest barrier
	// so far — the one the histogram's exemplar points at. Nil disables
	// instrumentation.
	Obs *obs.Registry
	// FlightRec receives structured lifecycle events (rotations, the first
	// sticky error). Nil falls back to Obs's recorder, so it only needs
	// setting when the owner keeps a recorder without a registry (the
	// always-on journal of a hybrid index).
	FlightRec *obs.FlightRecorder
}

// Log is a segmented write-ahead log. Enqueue is cheap and safe to call
// under a caller-side mutex; the committer goroutine does all file I/O.
type Log struct {
	fs    vfs.FS
	dir   string
	limit int64

	mu      sync.Mutex
	cond    *sync.Cond // committer wakeup
	pending [][]byte
	synchs  []*Barrier
	rotates []*rotateReq
	closing bool
	closed  chan struct{}
	err     error // sticky: first write/sync failure kills the log

	enqSeq    uint64 // records enqueued
	syncedSeq uint64 // records covered by an fsync

	// writtenSeq counts the records written to a segment file. Only the
	// committer touches it; writtenSeq > syncedSeq means the files hold bytes
	// no fsync has covered yet.
	writtenSeq uint64

	seg     uint64   // current segment sequence number
	segFile vfs.File // current segment handle
	segSize int64

	obsAppends *obs.Counter
	obsBytes   *obs.Counter
	obsFsyncs  *obs.Counter
	obsElided  *obs.Counter
	obsRotates *obs.Counter
	obsCommit  *obs.Histogram // group-commit latency (StartSync → resolved)
	obsSpans   *obs.Registry  // "wal."-prefixed view for the slowest pass's span
	fr         *obs.FlightRecorder
}

// Barrier is the wait handle of one StartSync call.
type Barrier struct {
	done chan struct{} // nil when the barrier resolved inside StartSync
	err  error
	t0   time.Time // StartSync time, for the group-commit histogram
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

// SegmentName returns the file name of segment seq: fixed-width decimal,
// so names sort in sequence order ("000042.wal").
func SegmentName(seq uint64) string { return fmt.Sprintf("%06d%s", seq, segmentExt) }

// parseSegmentName inverts SegmentName; ok=false for foreign files.
func parseSegmentName(name string) (seq uint64, ok bool) {
	base, found := strings.CutSuffix(name, segmentExt)
	if !found || len(base) == 0 {
		return 0, false
	}
	for _, c := range base {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// ListSegments returns the segment sequence numbers present in dir,
// ascending.
func ListSegments(fs vfs.FS, dir string) ([]uint64, error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, n := range names {
		if seq, ok := parseSegmentName(n); ok {
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

// refusalLocked is the error a failed or closing log answers new work
// with, nil while it is healthy. The caller holds l.mu.
func (l *Log) refusalLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.closing {
		return ErrClosed
	}
	return nil
}

// Enqueue stages rec for the committer; the record is durable once a later
// barrier covers it. It returns the log's sticky error (or ErrClosed) when
// the record is refused. The record contents are captured by reference;
// callers must not mutate rec afterwards. Safe (and intended) to call under
// a caller mutex so that WAL order matches in-memory apply order.
func (l *Log) Enqueue(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusalLocked(); err != nil {
		return err
	}
	l.enqSeq++
	l.pending = append(l.pending, rec)
	l.cond.Signal()
	return nil
}

// Sync blocks until every record enqueued so far is written and fsynced.
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
	if err := l.refusalLocked(); err != nil {
		return &Barrier{err: err}
	}
	if l.syncedSeq == l.enqSeq {
		l.obsElided.Inc()
		return cleanBarrier
	}
	b := &Barrier{done: make(chan struct{}), t0: time.Now()}
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
	if err := l.refusalLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
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

// commitLoop is the single committer: each pass steals the pending records
// and requests, writes the records (rotating mid-pass when the segment
// fills), fsyncs once if a barrier or rotation asks for it and something is
// uncovered, and answers the requests.
func (l *Log) commitLoop() {
	defer close(l.closed)
	for {
		l.mu.Lock()
		for len(l.pending) == 0 && len(l.synchs) == 0 && len(l.rotates) == 0 && !l.closing {
			l.cond.Wait()
		}
		if l.closing && len(l.pending) == 0 && len(l.synchs) == 0 && len(l.rotates) == 0 {
			// Close is the last barrier: cover what no earlier one did.
			if l.err == nil && l.writtenSeq > l.syncedSeq {
				if err := l.segFile.Sync(); err == nil {
					l.obsFsyncs.Inc()
					l.syncedSeq = l.writtenSeq
				}
			}
			l.mu.Unlock()
			return
		}
		batch, synchs, rotates := l.pending, l.synchs, l.rotates
		l.pending, l.synchs, l.rotates = nil, nil, nil
		err := l.err
		l.mu.Unlock()

		// Every barrier this pass answers is observed under this span's ID,
		// and the span is ended — becomes a record — only if one of them is
		// the slowest commit so far: a slow commit's exemplar resolves to the
		// pass (and fsync) it actually waited on, and a commit like any other
		// leaves the ring to the lifecycle.
		var sp *obs.Span
		if len(synchs) > 0 {
			sp = l.obsSpans.StartSpan("batch")
			sp.Phase("write")
		}
		var wrote int64
		if err == nil {
			for _, rec := range batch {
				if err = l.writeRecord(rec); err != nil {
					break
				}
				l.writtenSeq++
				wrote += int64(frameHeaderLen + len(rec))
			}
		}
		// A barrier that found every written record already covered (it was
		// queued while the fsync covering them ran) needs no fsync of its own.
		dirty := l.writtenSeq > l.syncedSeq
		if err == nil && dirty && (len(synchs) > 0 || len(rotates) > 0) {
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

		l.obsAppends.Add(int64(len(batch)))
		l.obsBytes.Add(wrote)
		if err == nil && !dirty {
			l.obsElided.Add(int64(len(synchs)))
		}
		now := time.Now()
		slowest := false
		for _, b := range synchs {
			if l.obsCommit.ObserveExemplar(now.Sub(b.t0).Nanoseconds(), sp.ID(), nil) {
				slowest = true
			}
		}
		if slowest {
			sp.Annotate(obs.I64("records", int64(len(batch))), obs.I64("bytes", wrote))
			sp.End()
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
		// Mid-pass rotation: sync and seal the full segment, open the next.
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
