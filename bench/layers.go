package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"mets/internal/bloom"
	"mets/internal/btree"
	"mets/internal/fst"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/server"
	"mets/internal/sharded"
	"mets/internal/surf"
	"mets/internal/vfs"
	"mets/internal/wal"
	"mets/internal/wire"
)

// Per-layer probes. Every number here is taken from outside the layer: by
// timing calls into its exported functions on the workload's own keys, or by
// reading its exported accessors. A workload runs only the probes of layers
// its operations pass through; the other rows stay 0.

const (
	probeKeys    = 100_000 // keys a probe builds its own structures over
	probeBatches = 9       // medianDur batches
)

// probeSample thins a sorted key table to at most probeKeys keys, evenly.
func probeSample(ks [][]byte) [][]byte {
	step := (len(ks) + probeKeys - 1) / probeKeys
	if step < 1 {
		step = 1
	}
	return every(ks, step)
}

func encodeAll(c keycodec.Codec, ks [][]byte) [][]byte {
	if keycodec.IsIdentity(c) {
		return ks
	}
	out := make([][]byte, len(ks))
	for i, k := range ks {
		out[i] = c.Encode(k)
	}
	return out
}

// shuffled is a fixed visiting order, so probes do not walk structures in
// key order (which would flatter every cache).
func shuffled(n int) []int { return rngFor(1, 900).Perm(n) }

func probeKeycodec(out metrics, c keycodec.Codec, ks [][]byte) {
	ks = probeSample(ks)
	enc := encodeAll(c, ks)
	order := shuffled(len(ks))
	per := len(ks) / probeBatches
	var buf []byte
	out.set("keycodec.decode_ns", medianDur(probeBatches, per, func(i int) {
		buf = c.DecodeAppend(buf[:0], enc[order[i]])
	}))
	var raw, packed int
	for i := range ks {
		raw += len(ks[i])
		packed += len(enc[i])
	}
	out.set("keycodec.cpr", float64(raw)/float64(packed))
	if d, ok := c.(interface{ DictBytes() int64 }); ok {
		out.set("keycodec.dict_bytes", float64(d.DictBytes()))
	}
}

func probeSharded(out metrics, idx *sharded.Index, ks [][]byte) {
	const scanLen = 50
	order := shuffled(len(ks))
	per := 2000 / probeBatches
	out.set("sharded.scan_ns_per_entry", medianDur(probeBatches, per, func(i int) {
		sink += len(idx.ScanN(ks[order[i]], scanLen))
	})/scanLen)
}

// probeEngine measures the layers under the sharded index on structures the
// benchmark builds itself over the same (encoded) keys: a dynamic and a
// compact B+tree, one unsharded hybrid index, and a Bloom filter.
func probeEngine(out metrics, enc [][]byte) {
	n := len(enc)
	order := shuffled(n)
	per := n / probeBatches
	entries := make([]index.Entry, n)
	for i, k := range enc {
		entries[i] = index.Entry{Key: k, Value: valueOf(i)}
	}

	tree := btree.New()
	out.set("btree.insert_ns", medianDur(probeBatches, per, func(i int) {
		tree.Insert(enc[order[i]], valueOf(order[i]))
	}))
	out.set("btree.get_ns", medianDur(probeBatches, per, func(i int) {
		v, _ := tree.Get(enc[order[i]])
		sink += int(v)
	}))
	out.set("btree.dynamic_bits_per_key", float64(tree.MemoryUsage())*8/float64(tree.Len()))

	t0 := time.Now()
	compact, err := btree.NewCompact(entries)
	if err != nil {
		panic(err) // sorted unique input; only a bug can fail this
	}
	out.set("btree.compact_build_keys_per_s", float64(n)/time.Since(t0).Seconds())
	out.set("btree.compact_get_ns", medianDur(probeBatches, per, func(i int) {
		v, _ := compact.Get(enc[order[i]])
		sink += int(v)
	}))
	compactBits := float64(compact.MemoryUsage()) * 8 / float64(n)
	out.set("btree.compact_bits_per_key", compactBits)

	// One unsharded hybrid index: 19 keys in 20 bulk-loaded into the static
	// stage, the rest inserted — too few to reach the merge trigger, so the
	// two stages stay apart while they are timed.
	hc := hybrid.DefaultConfig()
	hc.EpochReads = true
	hc.BackgroundMerge = true
	h := hybrid.NewBTree(hc)
	var static []index.Entry
	var statIdx, dynIdx []int
	for _, i := range order {
		if i%20 == 0 {
			dynIdx = append(dynIdx, i)
		} else {
			statIdx = append(statIdx, i)
		}
	}
	for i, e := range entries {
		if i%20 != 0 {
			static = append(static, e)
		}
	}
	if err := h.BulkLoad(static); err != nil {
		panic(err)
	}
	out.set("hybrid.get_static_ns", medianDur(probeBatches, len(statIdx)/probeBatches, func(i int) {
		v, _ := h.Get(enc[statIdx[i]])
		sink += int(v)
	}))
	out.set("hybrid.insert_ns", medianDur(probeBatches, len(dynIdx)/probeBatches, func(i int) {
		h.Insert(enc[dynIdx[i]], valueOf(dynIdx[i]))
	}))
	out.set("hybrid.get_dynamic_ns", medianDur(probeBatches, len(dynIdx)/probeBatches, func(i int) {
		v, _ := h.Get(enc[dynIdx[i]])
		sink += int(v)
	}))
	h.Merge()
	h.WaitMerges()
	out.set("hybrid.overhead_bits_per_key", float64(h.MemoryUsage())*8/float64(h.Len())-compactBits)

	f := bloom.New(n/10+1, hc.BloomBitsPerKey)
	for i := 0; i < n; i += 10 {
		f.AddAtomic(enc[i])
	}
	var fp, probes int
	for i, k := range enc {
		if i%10 == 0 {
			continue
		}
		probes++
		if f.ContainsAtomic(k) {
			fp++
		}
	}
	out.set("bloom.fpr", float64(fp)/float64(probes))
}

// ---- wire ----

// wireGetFrames is the size of a GET's request and response frames.
func wireGetFrames(key []byte, val uint64) int {
	req, _ := wire.Finish(wire.AppendBytes(wire.NewFrame(1, wire.OpGet), key))
	resp, _ := wire.Finish(wire.AppendUint(wire.NewFrame(1, wire.StatusOK), val))
	return len(req) + len(resp)
}

// wireGetRoundTrip builds and parses what one GET puts on the wire in both
// directions, as client and server do; the result only keeps the work alive.
func wireGetRoundTrip(id uint64, key []byte, val uint64) int {
	req, _ := wire.Finish(wire.AppendBytes(wire.NewFrame(id, wire.OpGet), key))
	_, _, body, _ := wire.ParseHeader(req[4:])
	k, _, _ := wire.Bytes(body)
	resp, _ := wire.Finish(wire.AppendUint(wire.NewFrame(id, wire.StatusOK), val))
	_, _, body, _ = wire.ParseHeader(resp[4:])
	v, _, _ := wire.Uint(body)
	return len(req) + len(resp) + len(k) + int(v&1)
}

func probeWire(out metrics, ks [][]byte, scanLen int) {
	out.set("wire.bytes_per_op", float64(wireGetFrames(ks[0], valueOf(0))))
	// A SCAN response: count, then key and value per entry; built as the
	// server builds it and parsed as the client parses it.
	per := 20_000 / probeBatches
	out.set("wire.scan_codec_ns_per_entry", medianDur(probeBatches, per, func(i int) {
		at := (i * 7919) % (len(ks) - scanLen)
		buf := wire.AppendUint(wire.NewFrame(uint64(i), wire.StatusOK), uint64(scanLen))
		for j := 0; j < scanLen; j++ {
			buf = wire.AppendUint(wire.AppendBytes(buf, ks[at+j]), valueOf(at+j))
		}
		resp, _ := wire.Finish(buf)
		_, _, body, _ := wire.ParseHeader(resp[4:])
		cnt, body, _ := wire.Uint(body)
		for j := uint64(0); j < cnt; j++ {
			var k []byte
			var v uint64
			k, body, _ = wire.Bytes(body)
			v, body, _ = wire.Uint(body)
			sink += len(k) + int(v)
		}
	})/float64(scanLen))
}

// ---- server ----

// probeApplyBatch times ShardedStore.ApplyBatch, the server's commit path
// below the coalescer, in 64-op batches of updates to loaded keys.
func probeApplyBatch(out metrics, st *server.ShardedStore, ks [][]byte) {
	const batch = 64
	ops := make([]server.Op, batch)
	out.set("server.apply_batch_ns_per_op", medianDur(probeBatches, 20, func(i int) {
		for j := range ops {
			ki := (i*batch + j) * 7919 % len(ks)
			ops[j] = server.Op{Key: ks[ki], Value: valueOf(ki)}
		}
		if _, err := st.ApplyBatch(ops); err != nil {
			panic(err)
		}
	})/batch)
}

// ---- wal, vfs ----

func probeVFS(out metrics, dir string) error {
	f, err := vfs.OS{}.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return err
	}
	defer f.Close()
	page := make([]byte, 4096)
	durs := make([]float64, 64)
	for i := range durs {
		t0 := time.Now()
		if _, err := f.Write(page); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		durs[i] = float64(time.Since(t0))
	}
	out.set("vfs.fsync_ns", median(durs))
	return nil
}

// probeWAL times the log's group-commit primitive on a scratch log, and
// replay over a copy of the journal the workload's server produced.
func probeWAL(out metrics, scratch, journal string) error {
	l, err := wal.Open(wal.Options{Dir: filepath.Join(scratch, "wal.probe")})
	if err != nil {
		return err
	}
	rec := bytes.Repeat([]byte{0xab}, 24)
	const group = 64
	var syncErr error
	out.set("wal.enqueue_sync_ns_per_rec", medianDur(probeBatches, 8, func(int) {
		for j := 0; j < group; j++ {
			l.Enqueue(rec)
		}
		if err := l.Sync(); err != nil {
			syncErr = err
		}
	})/group)
	if err := l.Close(); err != nil {
		return err
	}
	if syncErr != nil {
		return syncErr
	}
	// Replay every shard journal copy; the rate is records over summed time.
	shards, err := filepath.Glob(filepath.Join(journal, "shard*"))
	if err != nil {
		return err
	}
	var recs int
	var spent time.Duration
	for _, dir := range shards {
		cp := filepath.Join(scratch, "replay.probe", filepath.Base(dir))
		if err := copyFiles(cp, dir); err != nil {
			return err
		}
		t0 := time.Now()
		st, err := wal.Replay(vfs.OS{}, cp, 0, func([]byte) error { return nil })
		if err != nil {
			return err
		}
		spent += time.Since(t0)
		recs += st.Records
	}
	if spent > 0 {
		out.set("wal.replay_recs_per_s", float64(recs)/spent.Seconds())
	}
	return nil
}

// copyFiles copies the regular files of src into a new directory dst.
func copyFiles(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ---- surf, fst ----

// probeFilters builds one SuRF and one FST over a single SSTable's worth of
// the workload's keys and measures them alone. (surf.lookup_ns is not here:
// it is a child span of the traced reads.)
func probeFilters(out metrics, table [][]byte, cfg surf.Config, absent [][]byte, width uint64) error {
	n := len(table)
	order := shuffled(n)
	per := n / probeBatches

	t0 := time.Now()
	f, err := surf.Build(table, cfg)
	if err != nil {
		return err
	}
	out.set("surf.build_keys_per_s", float64(n)/time.Since(t0).Seconds())
	out.set("surf.bits_per_key", f.BitsPerKey())
	var fpPoint, fpRange, ranges int
	for _, k := range absent {
		if f.Lookup(k) {
			fpPoint++
		}
	}
	out.set("surf.fpr_point", float64(fpPoint)/float64(len(absent)))
	his := make([][]byte, len(absent))
	for i, k := range absent {
		his[i] = addUint(k, width)
	}
	out.set("surf.range_ns", medianDur(probeBatches, len(absent)/probeBatches, func(i int) {
		if f.LookupRange(absent[i], his[i], false) {
			sink++
		}
	}))
	for i, k := range absent {
		if lowerBound(table, k) < lowerBound(table, his[i]) {
			continue // a key really is in range; not a false positive
		}
		ranges++
		if f.LookupRange(k, his[i], false) {
			fpRange++
		}
	}
	out.set("surf.fpr_range", float64(fpRange)/float64(ranges))

	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = valueOf(i)
	}
	t0 = time.Now()
	trie, err := fst.Build(table, vals, fst.DefaultConfig())
	if err != nil {
		return err
	}
	out.set("fst.build_keys_per_s", float64(n)/time.Since(t0).Seconds())
	out.set("fst.bits_per_key", float64(trie.MemoryUsage())*8/float64(n))
	out.set("fst.get_ns", medianDur(probeBatches, per, func(i int) {
		v, _ := trie.Get(table[order[i]])
		sink += int(v)
	}))
	it := trie.NewIterator()
	out.set("fst.seek_ns", medianDur(probeBatches, len(absent)/probeBatches, func(i int) {
		it.SeekLowerBound(absent[i])
		if it.Valid() {
			sink++
		}
	}))
	return nil
}
