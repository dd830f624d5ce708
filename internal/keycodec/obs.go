package keycodec

import (
	"math/rand/v2"
	"time"

	"mets/internal/obs"
)

// dictSized is implemented by codecs with a trained dictionary.
type dictSized interface{ DictBytes() int64 }

// latencySampleEvery is how many codec calls share one timed one: two clock
// reads and a histogram update cost about as much as decoding a key, so
// timing every call would double what it measures. The byte counters behind
// keycodec.cpr count every call.
const latencySampleEvery = 16

// instrumented decorates a Codec with the "keycodec." obs namespace:
//
//	keycodec.encode_ns / keycodec.decode_ns   latency histograms (sampled)
//	keycodec.src_bytes / keycodec.enc_bytes   cumulative byte counters
//	keycodec.cpr                              derived gauge src/enc (CPR, §6.1.2)
//	keycodec.dict_bytes                       dictionary memory gauge
//	keycodec.id                               not a metric; exposed via ID()
type instrumented struct {
	inner     Codec
	encodeLat *obs.Histogram
	decodeLat *obs.Histogram
	srcBytes  *obs.Counter
	encBytes  *obs.Counter
}

// Instrument wraps c with latency histograms, live CPR, and dictionary-
// memory gauges registered under reg's "keycodec." prefix. A nil registry
// or identity codec returns c unchanged (the identity boundary is free and
// not worth timing).
func Instrument(c Codec, reg *obs.Registry) Codec {
	if reg == nil || IsIdentity(c) {
		return c
	}
	kr := reg.Sub("keycodec.")
	w := &instrumented{
		inner:     c,
		encodeLat: kr.Histogram("encode_ns"),
		decodeLat: kr.Histogram("decode_ns"),
		srcBytes:  kr.Counter("src_bytes"),
		encBytes:  kr.Counter("enc_bytes"),
	}
	src, enc := w.srcBytes, w.encBytes
	kr.GaugeFunc("cpr", func() float64 {
		s, e := src.Load(), enc.Load()
		if e == 0 {
			return 0
		}
		return float64(s) / float64(e)
	})
	var dict int64
	if ds, ok := c.(dictSized); ok {
		dict = ds.DictBytes()
	}
	kr.Gauge("dict_bytes").Set(float64(dict))
	return w
}

func (w *instrumented) ID() string { return w.inner.ID() }

// sampleStart returns the start time of the one call in latencySampleEvery
// that is timed, and the zero time for the others. The draw is per-thread
// runtime state, so concurrent callers share no cache line for it.
func sampleStart() time.Time {
	if rand.Uint32()%latencySampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

// observeSince records a call sampleStart chose to time.
func observeSince(lat *obs.Histogram, t0 time.Time) {
	if !t0.IsZero() {
		lat.Observe(time.Since(t0))
	}
}

func (w *instrumented) Encode(key []byte) []byte {
	t0 := sampleStart()
	out := w.inner.Encode(key)
	observeSince(w.encodeLat, t0)
	w.srcBytes.Add(int64(len(key)))
	w.encBytes.Add(int64(len(out)))
	return out
}

func (w *instrumented) EncodeAppend(dst, key []byte) []byte {
	t0 := sampleStart()
	n := len(dst)
	out := w.inner.EncodeAppend(dst, key)
	observeSince(w.encodeLat, t0)
	w.srcBytes.Add(int64(len(key)))
	w.encBytes.Add(int64(len(out) - n))
	return out
}

// EncodeBound is accounted like Encode: a scan's start bound is an encode the
// caller pays for, and the compression-rate detector reads these counters.
func (w *instrumented) EncodeBound(key []byte) []byte {
	t0 := sampleStart()
	out := w.inner.EncodeBound(key)
	observeSince(w.encodeLat, t0)
	w.srcBytes.Add(int64(len(key)))
	w.encBytes.Add(int64(len(out)))
	return out
}

func (w *instrumented) Decode(enc []byte) []byte {
	t0 := sampleStart()
	out := w.inner.Decode(enc)
	observeSince(w.decodeLat, t0)
	return out
}

func (w *instrumented) DecodeAppend(dst, enc []byte) []byte {
	t0 := sampleStart()
	out := w.inner.DecodeAppend(dst, enc)
	observeSince(w.decodeLat, t0)
	return out
}

func (w *instrumented) MarshalBinary() ([]byte, error) { return w.inner.MarshalBinary() }

func (w *instrumented) DictBytes() int64 {
	if ds, ok := w.inner.(dictSized); ok {
		return ds.DictBytes()
	}
	return 0
}
