package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path"

	"mets/internal/surf"
	"mets/internal/vfs"
)

// This file is the on-disk SSTable format of the durable engine. Layout:
//
//	u32 magic "MSST" | u32 version | u32 metaLen | u32 metaCRC
//	meta (metaLen bytes):
//	    u64 tableID | u64 keyCount
//	    u16 codecIDLen | codecID            ← codec generation stamped on disk
//	    u32 filterLen | filter payload      ← marshaled SuRF (SuR2/FST2 wire,
//	                                          self-describing codec id + dict)
//	    u32 blockCount | per block:
//	        u64 offset (relative to the blocks region) | u32 length |
//	        u32 blockCRC | u16 fenceLen | fence key
//	blocks region: the raw block payloads, back to back
//
// Everything is little-endian. metaCRC is CRC-32C over meta; each block has
// its own CRC-32C checked both at open (full validation pass) and on every
// lazy pread. Open never panics on arbitrary bytes (FuzzSSTableOpen):
// every length is bounds-checked before use and every section is gated by
// its checksum; a file that fails any check is rejected with an error, and
// the recovery path quarantines it (renames to .corrupt) instead of
// crashing the process.

const (
	sstMagic     = 0x5453534d // "MSST"
	sstVersion   = 1
	sstExt       = ".sst"
	sstTmpExt    = ".sst.tmp"
	corruptExt   = ".corrupt"
	sstMaxMeta   = 1 << 28 // sanity bound on metaLen
	sstPrologue  = 16
	sstMaxFilter = 1 << 28
)

func sstName(id uint64) string { return vfs.SegmentedName(id, sstExt) }

// marshalableFilter is satisfied by filters whose payload can be embedded
// in the table file (the SuRF adapter); others are rebuilt on open from the
// table's keys.
type marshalableFilter interface {
	MarshalBinary() ([]byte, error)
}

// writeSSTableFile persists a freshly built in-memory table and returns the
// file-backed form: fences and filter stay resident, block payloads live on
// disk behind the per-block index, and the data is fsynced before return.
// The file is written under a .tmp name and atomically renamed, so a crash
// mid-write never leaves a final-name partial (and recovery GC deletes the
// orphan tmp).
func writeSSTableFile(fs vfs.FS, dir string, t *SSTable) (*SSTable, error) {
	var filterPayload []byte
	if t.filter != nil {
		if m, ok := t.filter.(marshalableFilter); ok {
			p, err := m.MarshalBinary()
			if err != nil {
				return nil, fmt.Errorf("lsm: marshal filter: %w", err)
			}
			filterPayload = p
		}
	}
	// Meta section.
	meta := binary.LittleEndian.AppendUint64(nil, t.id)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(t.count))
	meta = binary.LittleEndian.AppendUint16(meta, uint16(len(t.codecID)))
	meta = append(meta, t.codecID...)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(filterPayload)))
	meta = append(meta, filterPayload...)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(t.blocks)))
	var off uint64
	info := make([]blockInfo, len(t.blocks))
	for i, b := range t.blocks {
		crc := crc32.Checksum(b, castagnoli)
		meta = binary.LittleEndian.AppendUint64(meta, off)
		meta = binary.LittleEndian.AppendUint32(meta, uint32(len(b)))
		meta = binary.LittleEndian.AppendUint32(meta, crc)
		meta = binary.LittleEndian.AppendUint16(meta, uint16(len(t.fence[i])))
		meta = append(meta, t.fence[i]...)
		info[i] = blockInfo{off: int64(off), length: uint32(len(b)), crc: crc}
		off += uint64(len(b))
	}
	var pro [sstPrologue]byte
	binary.LittleEndian.PutUint32(pro[0:4], sstMagic)
	binary.LittleEndian.PutUint32(pro[4:8], sstVersion)
	binary.LittleEndian.PutUint32(pro[8:12], uint32(len(meta)))
	binary.LittleEndian.PutUint32(pro[12:16], crc32.Checksum(meta, castagnoli))

	tmpName := path.Join(dir, vfs.SegmentedName(t.id, sstTmpExt))
	final := path.Join(dir, sstName(t.id))
	f, err := fs.Create(tmpName)
	if err != nil {
		return nil, fmt.Errorf("lsm: create %s: %w", tmpName, err)
	}
	if _, err := f.Write(append(pro[:], meta...)); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: write %s: %w", tmpName, err)
	}
	for _, b := range t.blocks {
		if _, err := f.Write(b); err != nil {
			f.Close()
			return nil, fmt.Errorf("lsm: write %s: %w", tmpName, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: sync %s: %w", tmpName, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("lsm: close %s: %w", tmpName, err)
	}
	if err := fs.Rename(tmpName, final); err != nil {
		return nil, fmt.Errorf("lsm: rename %s: %w", tmpName, err)
	}
	rf, err := fs.Open(final)
	if err != nil {
		return nil, fmt.Errorf("lsm: reopen %s: %w", final, err)
	}
	out := *t
	out.blocks = nil // payloads now live on disk
	out.binfo = info
	out.dataOff = int64(sstPrologue + len(meta))
	out.rf = rf
	return &out, nil
}

// metaReader is a bounds-checked cursor over the meta section; every
// overrun turns into an error instead of a slice panic.
type metaReader struct {
	b   []byte
	off int
}

func (r *metaReader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("lsm: sstable meta truncated")
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s, nil
}

func (r *metaReader) u16() (uint16, error) {
	s, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(s), nil
}

func (r *metaReader) u32() (uint32, error) {
	s, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s), nil
}

func (r *metaReader) u64() (uint64, error) {
	s, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(s), nil
}

// openSSTableFile validates and loads one table file: prologue and meta
// checksums, block index bounds, per-block CRCs (a full sequential
// verification pass — recovery-time integrity beats lazy surprise), and
// the embedded filter payload. When the file has no embedded filter but fb
// is set, the filter is rebuilt from the table's keys (Bloom filters are
// not serialized). Any validation failure returns an error; the file is
// never partially adopted.
func openSSTableFile(fs vfs.FS, name string, fb FilterBuilder) (*SSTable, error) {
	rf, err := fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("lsm: open %s: %w", name, err)
	}
	t, err := loadSSTable(rf, fb)
	if err != nil {
		rf.Close()
		return nil, fmt.Errorf("lsm: %s: %w", name, err)
	}
	return t, nil
}

func loadSSTable(rf vfs.ReadFile, fb FilterBuilder) (*SSTable, error) {
	size := rf.Size()
	if size < sstPrologue {
		return nil, fmt.Errorf("file too short (%d bytes)", size)
	}
	var pro [sstPrologue]byte
	if _, err := rf.ReadAt(pro[:], 0); err != nil {
		return nil, fmt.Errorf("read prologue: %w", err)
	}
	if binary.LittleEndian.Uint32(pro[0:4]) != sstMagic {
		return nil, fmt.Errorf("bad magic")
	}
	if v := binary.LittleEndian.Uint32(pro[4:8]); v != sstVersion {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	metaLen := int64(binary.LittleEndian.Uint32(pro[8:12]))
	if metaLen > sstMaxMeta || sstPrologue+metaLen > size {
		return nil, fmt.Errorf("meta length %d out of bounds", metaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := rf.ReadAt(meta, sstPrologue); err != nil {
		return nil, fmt.Errorf("read meta: %w", err)
	}
	if crc32.Checksum(meta, castagnoli) != binary.LittleEndian.Uint32(pro[12:16]) {
		return nil, fmt.Errorf("meta checksum mismatch")
	}
	r := &metaReader{b: meta}
	t := &SSTable{rf: rf, dataOff: sstPrologue + metaLen}
	var err error
	if t.id, err = r.u64(); err != nil {
		return nil, err
	}
	cnt, err := r.u64()
	if err != nil {
		return nil, err
	}
	t.count = int(cnt)
	idLen, err := r.u16()
	if err != nil {
		return nil, err
	}
	idBytes, err := r.take(int(idLen))
	if err != nil {
		return nil, err
	}
	t.codecID = string(idBytes)
	filterLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	if filterLen > sstMaxFilter {
		return nil, fmt.Errorf("filter length %d out of bounds", filterLen)
	}
	filterPayload, err := r.take(int(filterLen))
	if err != nil {
		return nil, err
	}
	nBlocks, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Each index entry occupies at least 18 meta bytes; reject a count the
	// remaining meta cannot hold before allocating for it.
	if int64(nBlocks) > int64(len(meta)-r.off)/18 {
		return nil, fmt.Errorf("block count %d out of bounds", nBlocks)
	}
	dataSize := size - t.dataOff
	var prevEnd int64
	t.binfo = make([]blockInfo, 0, nBlocks)
	t.fence = make([][]byte, 0, nBlocks)
	for i := uint32(0); i < nBlocks; i++ {
		off, err := r.u64()
		if err != nil {
			return nil, err
		}
		length, err := r.u32()
		if err != nil {
			return nil, err
		}
		crc, err := r.u32()
		if err != nil {
			return nil, err
		}
		fenceLen, err := r.u16()
		if err != nil {
			return nil, err
		}
		fence, err := r.take(int(fenceLen))
		if err != nil {
			return nil, err
		}
		if int64(off) != prevEnd || int64(off)+int64(length) > dataSize || length == 0 {
			return nil, fmt.Errorf("block %d index out of bounds", i)
		}
		prevEnd = int64(off) + int64(length)
		t.binfo = append(t.binfo, blockInfo{off: int64(off), length: length, crc: crc})
		t.fence = append(t.fence, append([]byte(nil), fence...))
	}
	if r.off != len(meta) {
		return nil, fmt.Errorf("trailing meta bytes")
	}
	// Full verification pass: every block must read back, checksum, and
	// parse; the first and last entries give min/max keys, and the keys
	// feed a filter rebuild when none was embedded.
	var allKeys [][]byte
	rebuild := len(filterPayload) == 0 && fb != nil
	total := 0
	for i := range t.binfo {
		raw, err := t.readBlockRaw(i)
		if err != nil {
			return nil, err
		}
		r := blockReader{raw: raw, untrusted: true}
		n := 0
		for ; r.next(); n++ {
			if i == 0 && n == 0 {
				t.minKey = append([]byte(nil), r.key...)
			}
			if rebuild {
				allKeys = append(allKeys, append([]byte(nil), r.key...))
			}
		}
		if r.err != nil {
			return nil, fmt.Errorf("block %d: %w", i, r.err)
		}
		if n == 0 {
			return nil, fmt.Errorf("block %d: empty", i)
		}
		if i == len(t.binfo)-1 { // r.key is still the block's last record
			t.maxKey = append([]byte(nil), r.key...)
		}
		total += n
	}
	if total != t.count {
		return nil, fmt.Errorf("key count %d != header %d", total, t.count)
	}
	if len(filterPayload) > 0 {
		f, err := surf.Unmarshal(filterPayload)
		if err != nil {
			return nil, fmt.Errorf("filter payload: %w", err)
		}
		t.filter = &surfAdapter{f: f}
	} else if rebuild && len(allKeys) > 0 {
		f, err := fb(allKeys)
		if err != nil {
			return nil, fmt.Errorf("filter rebuild: %w", err)
		}
		t.filter = f
	}
	return t, nil
}

// readBlockRaw fetches and checksum-verifies one block's serialized bytes.
func (t *SSTable) readBlockRaw(i int) ([]byte, error) {
	if t.rf == nil {
		return t.blocks[i], nil
	}
	bi := t.binfo[i]
	raw := make([]byte, bi.length)
	if _, err := t.rf.ReadAt(raw, t.dataOff+bi.off); err != nil {
		return nil, fmt.Errorf("block %d read: %w", i, err)
	}
	if crc32.Checksum(raw, castagnoli) != bi.crc {
		return nil, fmt.Errorf("block %d checksum mismatch", i)
	}
	return raw, nil
}

// numBlocks returns the block count regardless of backing.
func (t *SSTable) numBlocks() int {
	if t.rf != nil {
		return len(t.binfo)
	}
	return len(t.blocks)
}

// blockBytes returns the serialized size of block i.
func (t *SSTable) blockBytes(i int) int64 {
	if t.rf != nil {
		return int64(t.binfo[i].length)
	}
	return int64(len(t.blocks[i]))
}

// Close releases the table's file handle, if any.
func (t *SSTable) Close() error {
	if t.rf != nil {
		err := t.rf.Close()
		t.rf = nil
		return err
	}
	return nil
}
