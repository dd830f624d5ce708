package keycodec

import (
	"math/rand/v2"
	"time"

	"mets/internal/hope"
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/obs"
)

// This file is the scan side of the codec boundary: an index that stores
// keys in a codec's encoded space scans entirely encoded (a codec is a strict
// monotone injection, so the encoded start bound selects exactly the
// encodings of keys >= start) and decodes only what it emits. Every scan in
// the repository decodes through the one RunDecoder below, either behind a
// callback (ScanEncoded) or into retainable copies (Collector).

// Bound maps a scan's start key into c's encoded space. A nil codec (keys
// stored raw) and a nil start (scan from the beginning) pass through.
func Bound(c Codec, start []byte) []byte {
	if c == nil || start == nil {
		return start
	}
	return c.EncodeBound(start)
}

// RunDecoder decodes the keys one scan emits, in the order it emits them. A
// HOPE codec resumes each key where it stops sharing bits with the one before
// (hope.RunDecoder); any other codec decodes each key whole into one reused
// buffer. Not safe for concurrent use — a scan makes its own.
type RunDecoder struct {
	run      *hope.RunDecoder // nil: plain decodes
	stripPad bool
	plain    Codec
	buf      []byte
	// An instrumented codec's decode latency (nil otherwise), sampled as its
	// DecodeAppend samples it — one key in latencySampleEvery — but counted
	// down from one random draw per scan: a draw per key cost 8% of a scan.
	lat     *obs.Histogram
	untimed uint32
}

// NewRunDecoder returns the scan-emit decoder for c.
func NewRunDecoder(c Codec) RunDecoder {
	var r RunDecoder
	if w, ok := c.(*instrumented); ok {
		r.lat, c = w.decodeLat, w.inner
		r.untimed = rand.Uint32N(latencySampleEvery)
	}
	if h, ok := c.(*hopeCodec); ok {
		r.run, r.stripPad = h.dec.NewRun(), h.stripPad
	} else {
		r.plain = c
	}
	return r
}

// Next decodes enc, returning what DecodeAppend(nil, enc) would in a buffer
// the decoder owns: valid until the next call and not to be modified.
func (r *RunDecoder) Next(enc []byte) []byte {
	var t0 time.Time
	if r.lat != nil {
		if r.untimed == 0 {
			t0, r.untimed = time.Now(), latencySampleEvery
		}
		r.untimed--
	}
	var out []byte
	if r.run == nil {
		r.buf = r.plain.DecodeAppend(r.buf[:0], enc)
		out = r.buf
	} else {
		out = r.run.Next(enc)
		// Double-Char's pad byte (hopeCodec.stripPad) is cut from the view
		// only: the run decoder resumes from what the codes really decode to.
		if r.stripPad && len(out) > 0 && out[len(out)-1] == 0 {
			out = out[:len(out)-1]
		}
	}
	observeSince(r.lat, t0)
	return out
}

// ScanEncoded maps a raw-space scan request onto an index that stores keys
// in c's encoded space: it returns the encoded start bound and a callback
// that decodes each emitted key before handing it to fn. The key fn sees is
// valid only during the callback. A nil codec passes both through untouched.
func ScanEncoded(c Codec, start []byte, fn func(key []byte, value uint64) bool) ([]byte, func([]byte, uint64) bool) {
	if c == nil {
		return start, fn
	}
	dec := NewRunDecoder(c)
	return Bound(c, start), func(k []byte, v uint64) bool { return fn(dec.Next(k), v) }
}

// Collector is the one ScanN: it gathers the first n entries a scan emits as
// copies the caller may keep, in raw key space. Emit takes the key as the
// index lends it — encoded when the index stores encoded keys — and decodes
// it straight into a slab sized from n, so n keys cost a couple of
// allocations, not n.
type Collector struct {
	n       int
	encoded bool
	dec     RunDecoder
	out     []index.Entry
	slab    keys.Slab
}

// collectCap bounds what a Collector sizes up front: a caller may pass a
// huge n meaning "everything".
const collectCap = 1024

// NewCollector returns a collector of up to n entries from an index whose
// keys are in c's encoded space (nil: raw).
func NewCollector(c Codec, n int) *Collector {
	col := &Collector{n: n, encoded: c != nil}
	if col.encoded {
		col.dec = NewRunDecoder(c)
	}
	return col
}

// Emit is the scan callback: it keeps a copy of the entry and reports
// whether the collector wants more.
func (c *Collector) Emit(k []byte, v uint64) bool {
	if c.encoded {
		k = c.dec.Next(k)
	}
	if c.out == nil {
		// Sized on the first entry, so an empty scan allocates nothing: room
		// for n keys half again as long as this one.
		n := min(c.n, collectCap)
		c.out = make([]index.Entry, 0, n)
		c.slab = keys.NewSlab(n * (len(k) + len(k)/2 + 8))
	}
	c.out = append(c.out, index.Entry{Key: c.slab.Clone(k), Value: v})
	return len(c.out) < c.n
}

// Full reports whether n entries have been collected.
func (c *Collector) Full() bool { return len(c.out) >= c.n }

// Entries returns what was collected, in emit order; nil when nothing was.
func (c *Collector) Entries() []index.Entry { return c.out }
