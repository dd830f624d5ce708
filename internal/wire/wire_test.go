package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// testFrame is a frame as the tests model it: header plus alternating
// bytes/uint fields.
type testFrame struct {
	id     uint64
	code   byte
	fields [][]byte // even index: AppendBytes; odd index: AppendUint of the first 8 bytes
}

func fieldUint(f []byte) uint64 {
	var b [8]byte
	copy(b[:], f)
	return binary.LittleEndian.Uint64(b[:])
}

func (tf testFrame) seal(t testing.TB) []byte {
	buf := NewFrame(tf.id, tf.code)
	for i, f := range tf.fields {
		if i%2 == 0 {
			buf = AppendBytes(buf, f)
		} else {
			buf = AppendUint(buf, fieldUint(f))
		}
	}
	frame, err := Finish(buf)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return frame
}

// check parses payload back and compares it with tf.
func (tf testFrame) check(t testing.TB, payload []byte) {
	t.Helper()
	id, code, body, err := ParseHeader(payload)
	if err != nil || id != tf.id || code != tf.code {
		t.Fatalf("ParseHeader = (%d,%d,%v), want (%d,%d)", id, code, err, tf.id, tf.code)
	}
	for i, f := range tf.fields {
		if i%2 == 0 {
			var got []byte
			if got, body, err = Bytes(body); err != nil || !bytes.Equal(got, f) {
				t.Fatalf("field %d: Bytes = (%q,%v), want %q", i, got, err, f)
			}
		} else {
			var got uint64
			if got, body, err = Uint(body); err != nil || got != fieldUint(f) {
				t.Fatalf("field %d: Uint = (%d,%v), want %d", i, got, err, fieldUint(f))
			}
		}
	}
	if len(body) != 0 {
		t.Fatalf("%d trailing body bytes", len(body))
	}
}

// framesFrom cuts fuzz input into frames: a count byte, then per frame an id
// byte, a code byte, a field count and length-prefixed fields, for as long as
// the input lasts.
func framesFrom(data []byte) (frames []testFrame, rest []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for n := int(next()%6) + 1; n > 0; n-- {
		tf := testFrame{id: uint64(next()) * 0x0101010101010101, code: next()}
		for k := int(next() % 5); k > 0; k-- {
			l := int(next())
			if l > len(data) {
				l = len(data)
			}
			tf.fields = append(tf.fields, data[:l:l])
			data = data[l:]
		}
		frames = append(frames, tf)
	}
	return frames, data
}

// chunkReader delivers a stream in pieces whose sizes come from cuts (cycled;
// 0 counts as 1), the way a socket delivers arbitrary segments.
type chunkReader struct {
	data []byte
	cuts []byte
	i    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.cuts) > 0 {
		n = int(c.cuts[c.i%len(c.cuts)])%64 + 1
		c.i++
	}
	n = min(n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// readers are Reader with a buffer smaller than most frames and with a
// roomy one; each must return every frame of a stream identically however
// the stream is chunked.
var readers = map[string]func(io.Reader) func() ([]byte, error){
	"Reader/16": func(r io.Reader) func() ([]byte, error) {
		return NewReader(r, 16).Next // frames beyond 12 payload bytes take the own-slice path
	},
	"Reader/4096": func(r io.Reader) func() ([]byte, error) {
		return NewReader(r, 4096).Next
	},
}

func roundTrip(t *testing.T, data []byte) {
	frames, cuts := framesFrom(data)
	var stream []byte
	for _, tf := range frames {
		stream = append(stream, tf.seal(t)...)
	}
	// Where the truncated variant ends: anywhere in the stream.
	cut := 0
	if len(cuts) > 0 {
		cut = int(cuts[0]) * len(stream) / 256
	}
	deliveries := map[string]func([]byte) io.Reader{
		"whole":   func(s []byte) io.Reader { return bytes.NewReader(s) },
		"onebyte": func(s []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(s)) },
		"chunks":  func(s []byte) io.Reader { return &chunkReader{data: s, cuts: cuts} },
	}
	for rname, mk := range readers {
		for dname, deliver := range deliveries {
			next := mk(deliver(stream))
			for i, tf := range frames {
				p, err := next()
				if err != nil {
					t.Fatalf("%s/%s: frame %d: %v", rname, dname, i, err)
				}
				tf.check(t, p)
			}
			if _, err := next(); err != io.EOF {
				t.Fatalf("%s/%s: after the last frame: %v, want io.EOF", rname, dname, err)
			}

			// Truncated at cut: whole frames before it come back, then EOF
			// at a boundary or ErrUnexpectedEOF inside a frame.
			next = mk(deliver(stream[:cut]))
			off := 0
			for i, tf := range frames {
				size := len(tf.seal(t))
				p, err := next()
				if off+size <= cut {
					if err != nil {
						t.Fatalf("%s/%s: cut %d: frame %d: %v", rname, dname, cut, i, err)
					}
					tf.check(t, p)
					off += size
					continue
				}
				want := io.ErrUnexpectedEOF
				if off == cut {
					want = io.EOF
				}
				if err != want {
					t.Fatalf("%s/%s: cut %d inside frame %d (at %d): %v, want %v", rname, dname, cut, i, off, err, want)
				}
				break
			}
		}
	}
}

// FuzzWireRoundTrip: frames built with NewFrame/AppendBytes/AppendUint/Finish
// come back identical through Reader → ParseHeader →
// Bytes/Uint under arbitrary chunkings of the stream, and a stream cut short
// ends in io.EOF between frames and io.ErrUnexpectedEOF inside one.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 7, OpGet, 1, 3, 'k', 'e', 'y', 200})
	f.Add([]byte{3, 1, OpPut, 2, 3, 'k', 'e', 'y', 2, 42, 0, 2, StatusOK, 0, 3, OpScan, 2, 0, 1, 20, 5, 130, 9})
	f.Add(append([]byte{2, 9, OpBatch, 4, 40}, bytes.Repeat([]byte("0123456789"), 12)...))
	f.Fuzz(roundTrip)
}

// TestBadLengthsAllocateNothing: a declared length below the header or above
// MaxFrame is ErrFrameTooLarge before any payload buffer exists.
func TestBadLengthsAllocateNothing(t *testing.T) {
	for _, n := range []uint32{0, HeaderLen - 1, MaxFrame + 1, 0xffffffff} {
		stream := binary.LittleEndian.AppendUint32(nil, n)
		stream = append(stream, make([]byte, 64)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := NewReader(bytes.NewReader(stream), 16).Next()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFrameTooLarge) || p != nil {
			t.Fatalf("length %d: (%d bytes, %v), want ErrFrameTooLarge", n, len(p), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
			t.Fatalf("length %d: allocated %d bytes on the way to the error", n, got)
		}
	}
	// The limit itself is accepted.
	frame := AppendFrame(nil, 1, OpStats)
	frame = append(frame, make([]byte, MaxFrame-HeaderLen)...)
	if err := FinishAt(frame, 0); err != nil {
		t.Fatal(err)
	}
	if p, err := NewReader(bytes.NewReader(frame), 4096).Next(); err != nil || len(p) != MaxFrame {
		t.Fatalf("frame of exactly MaxFrame bytes: (%d bytes, %v)", len(p), err)
	}
}

// TestFrameBuffered pins the predicate the server's flush rule rests on: true
// only when Next will not touch the stream.
func TestFrameBuffered(t *testing.T) {
	a := testFrame{id: 1, code: OpGet, fields: [][]byte{[]byte("alpha")}}.seal(t)
	b := testFrame{id: 2, code: OpGet, fields: [][]byte{[]byte("beta")}}.seal(t)
	for split := 0; split <= len(b); split++ {
		// First delivery: all of a and the first split bytes of b.
		first := append(append([]byte(nil), a...), b[:split]...)
		src := &scriptReader{chunks: [][]byte{first, b[split:]}}
		r := NewReader(src, 4096)
		if r.FrameBuffered() {
			t.Fatal("FrameBuffered before anything was read")
		}
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if got, want := r.FrameBuffered(), split == len(b); got != want {
			t.Fatalf("split %d/%d: FrameBuffered = %v, want %v", split, len(b), got, want)
		}
		reads := src.reads
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if split == len(b) && src.reads != reads {
			t.Fatalf("Next read the stream though a whole frame was buffered")
		}
	}
	// A buffered length that Next will refuse is not a buffered frame.
	r := NewReader(bytes.NewReader(append(append([]byte(nil), a...), 0xff, 0xff, 0xff, 0xff, 0)), 4096)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if r.FrameBuffered() {
		t.Fatal("FrameBuffered with an oversized length buffered")
	}
}

// scriptReader hands out one chunk per Read.
type scriptReader struct {
	chunks [][]byte
	reads  int
}

func (s *scriptReader) Read(p []byte) (int, error) {
	for len(s.chunks) > 0 && len(s.chunks[0]) == 0 {
		s.chunks = s.chunks[1:]
	}
	if len(s.chunks) == 0 {
		return 0, io.EOF
	}
	s.reads++
	n := copy(p, s.chunks[0])
	s.chunks[0] = s.chunks[0][n:]
	return n, nil
}

// TestAppendFrameAfterSealedFrames: frames sealed one after another in a
// shared buffer (what the server's inline replies do) parse as a stream.
func TestAppendFrameAfterSealedFrames(t *testing.T) {
	var buf []byte
	want := []testFrame{
		{id: 1, code: StatusOK, fields: [][]byte{[]byte("k1"), {7}}},
		{id: 2, code: StatusNotFound},
		{id: 3, code: StatusOK, fields: [][]byte{bytes.Repeat([]byte{'x'}, 300)}},
	}
	for _, tf := range want {
		at := len(buf)
		buf = AppendFrame(buf, tf.id, tf.code)
		for i, f := range tf.fields {
			if i%2 == 0 {
				buf = AppendBytes(buf, f)
			} else {
				buf = AppendUint(buf, fieldUint(f))
			}
		}
		if err := FinishAt(buf, at); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewReader(bytes.NewReader(buf), 4096)
	for _, tf := range want {
		p, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		tf.check(t, p)
	}
	over := AppendFrame(buf, 9, StatusOK)
	at := len(buf)
	over = append(over, make([]byte, MaxFrame)...)
	if err := FinishAt(over, at); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("FinishAt on an oversized frame: %v", err)
	}
}
