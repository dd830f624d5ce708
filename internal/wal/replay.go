package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path"

	"mets/internal/obs"
	"mets/internal/vfs"
)

// ReplayStats summarizes one recovery pass.
type ReplayStats struct {
	Segments int   // segments visited
	Records  int   // records applied
	Bytes    int64 // framed bytes consumed
	// Torn is set when replay stopped at an invalid frame (short header,
	// bad length, CRC mismatch) instead of a clean end-of-log. TornSegment
	// is the segment it stopped in and TornOffset the byte length of that
	// segment's valid frame prefix — the truncation point Repair commits.
	Torn        bool
	TornSegment uint64
	TornOffset  int64
}

// Replay applies every intact record in dir's segments with sequence >=
// minSeg, in (segment, offset) order, to fn. It stops — without error — at
// the first frame that does not validate: under the crash model that frame
// and everything after it are bytes no barrier covered, so stopping never
// loses a durable record. A record-apply error from fn aborts the replay and
// is returned.
//
// Replay never panics on arbitrary segment contents (FuzzWALReplay pins
// this): lengths are bounds-checked before any allocation and CRCs gate
// every payload.
func Replay(fs vfs.FS, dir string, minSeg uint64, fn func(rec []byte) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := ListSegments(fs, dir)
	if err != nil {
		return st, err
	}
	for _, seq := range segs {
		if seq < minSeg {
			continue
		}
		st.Segments++
		torn, n, bytes, err := replaySegment(fs, path.Join(dir, SegmentName(seq)), fn)
		st.Records += n
		st.Bytes += bytes
		if err != nil {
			return st, err
		}
		if torn {
			// A torn frame mid-log (not in the last segment) means synced
			// data was damaged out-of-band; replay still stops here — the
			// suffix cannot be trusted to be gap-free. The caller must run
			// Repair before appending new records, or a second crash would
			// leave this frame in place and a future replay would stop at it
			// again, losing everything acked after it.
			st.Torn = true
			st.TornSegment = seq
			st.TornOffset = bytes
			break
		}
	}
	return st, nil
}

// corruptSuffix marks quarantined segment files: kept for forensics,
// invisible to ListSegments.
const corruptSuffix = ".corrupt"

// Repair makes a torn log appendable again: it quarantines every segment
// after the torn one (their records postdate a damaged frame, so they
// cannot be trusted to be gap-free) and truncates the torn segment to its
// valid frame prefix. After Repair, a future Replay reads the repaired
// segment cleanly to end-of-file and continues into segments created later
// — without it, replay would stop at the damaged frame forever and every
// record acked into newer segments would be unreachable after the next
// crash.
//
// The truncation is a write-tmp → sync → rename so a crash mid-repair
// leaves either the torn segment (repair reruns) or the repaired one,
// never a half-truncated file; quarantines happen first so the rename is
// the commit point. A no-op when st.Torn is false.
func Repair(fs vfs.FS, dir string, st ReplayStats) error {
	if !st.Torn {
		return nil
	}
	segs, err := ListSegments(fs, dir)
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if seq <= st.TornSegment {
			continue
		}
		name := path.Join(dir, SegmentName(seq))
		if err := fs.Rename(name, name+corruptSuffix); err != nil {
			return fmt.Errorf("wal: quarantine %s: %w", name, err)
		}
	}
	name := path.Join(dir, SegmentName(st.TornSegment))
	if err := truncateSegment(fs, name, st.TornOffset); err != nil {
		return fmt.Errorf("wal: repair %s: %w", name, err)
	}
	return nil
}

// Recover is the journal's whole restart sequence: replay every intact record
// into fn, repair a torn tail, then open the log o describes for appending.
// The repair is committed before anything can be appended — truncate the torn
// segment to its valid prefix and quarantine the untrusted segments after it
// — because skipping it would strand every write made durable after this
// recovery behind the damaged frame at the next crash. The replay and a
// repair are recorded on o.FlightRec as "journal.replay" and "journal.repair".
func Recover(o Options, fn func(rec []byte) error) (*Log, ReplayStats, error) {
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
	if err := o.FS.MkdirAll(o.Dir); err != nil {
		return nil, ReplayStats{}, fmt.Errorf("wal: mkdir %s: %w", o.Dir, err)
	}
	st, err := Replay(o.FS, o.Dir, 0, fn)
	if err != nil {
		return nil, st, err
	}
	attrs := []obs.Attr{
		obs.I64("segments", int64(st.Segments)),
		obs.I64("records", int64(st.Records)),
		obs.I64("bytes", st.Bytes),
	}
	torn := []obs.Attr{
		obs.I64("torn_segment", int64(st.TornSegment)),
		obs.I64("torn_offset", st.TornOffset),
	}
	if st.Torn {
		attrs = append(attrs, torn...)
	}
	o.FlightRec.Record("journal.replay", attrs...)
	if err := Repair(o.FS, o.Dir, st); err != nil {
		return nil, st, err
	}
	if st.Torn {
		o.FlightRec.Record("journal.repair", torn...)
	}
	l, err := Open(o)
	return l, st, err
}

// truncateSegment atomically rewrites name as its first keep bytes.
func truncateSegment(fs vfs.FS, name string, keep int64) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	buf := make([]byte, keep)
	if keep > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			f.Close()
			return err
		}
	}
	f.Close()
	tmp := name + ".tmp"
	w, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		w.Close()
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, name)
}

// replaySegment applies one segment's intact prefix. torn reports whether
// parsing stopped before end-of-file.
func replaySegment(fs vfs.FS, name string, fn func(rec []byte) error) (torn bool, n int, bytes int64, err error) {
	f, err := fs.Open(name)
	if err != nil {
		return false, 0, 0, fmt.Errorf("wal: open %s: %w", name, err)
	}
	defer f.Close()
	size := f.Size()
	var off int64
	var hdr [frameHeaderLen]byte
	for off+frameHeaderLen <= size {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			if err == io.EOF {
				return true, n, bytes, nil
			}
			return false, n, bytes, fmt.Errorf("wal: read %s: %w", name, err)
		}
		ln := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if ln > MaxRecordBytes || off+frameHeaderLen+ln > size {
			return true, n, bytes, nil
		}
		rec := make([]byte, ln)
		if ln > 0 {
			if _, err := f.ReadAt(rec, off+frameHeaderLen); err != nil {
				if err == io.EOF {
					return true, n, bytes, nil
				}
				return false, n, bytes, fmt.Errorf("wal: read %s: %w", name, err)
			}
		}
		crc := crc32.Update(0, castagnoli, hdr[0:4])
		crc = crc32.Update(crc, castagnoli, rec)
		if crc != binary.LittleEndian.Uint32(hdr[4:8]) {
			return true, n, bytes, nil
		}
		if err := fn(rec); err != nil {
			return false, n, bytes, err
		}
		n++
		off += frameHeaderLen + ln
		bytes += frameHeaderLen + ln
	}
	return off != size, n, bytes, nil
}
