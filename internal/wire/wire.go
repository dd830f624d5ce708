// Package wire defines the length-prefixed binary protocol spoken between
// mets-server and internal/client. A frame is
//
//	u32 little-endian payload length | payload
//
// with the length bounded by MaxFrame so a malicious or corrupted peer can
// never make the receiver allocate unboundedly. Every payload starts with a
// fixed header
//
//	u64 little-endian request id | u8 opcode (request) or status (response)
//
// followed by an opcode-specific body of uvarint-framed fields (the same
// framing discipline the WAL records use). Request ids are chosen by the
// client and echoed verbatim by the server; responses may arrive in any
// order, which is what makes per-connection pipelining work — a GET behind a
// fsyncing PUT on the same connection completes without waiting for it.
//
// Both ends read frames through Reader (buffered, payloads lent, one read
// syscall per burst); ReadFrame is the allocating form for everything else.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds a frame payload (requests and responses). Large range
// scans are chunked by the client well below this.
const MaxFrame = 1 << 20

// HeaderLen is the fixed payload prefix: u64 request id + 1 opcode/status.
const HeaderLen = 9

// Request opcodes.
const (
	OpGet       byte = 1
	OpPut       byte = 2
	OpDelete    byte = 3
	OpScan      byte = 4
	OpBatch     byte = 5
	OpSnapBegin byte = 6
	OpSnapRead  byte = 7
	OpSnapEnd   byte = 8
	OpStats     byte = 9
)

// Response statuses.
const (
	StatusOK          byte = 0
	StatusNotFound    byte = 1
	StatusRetryLater  byte = 2 // admission control shed the request; retry after backoff
	StatusBadRequest  byte = 3 // malformed body, unknown opcode, unknown snapshot id
	StatusErr         byte = 4 // store-side failure; body carries the message
	StatusUnsupported byte = 5 // engine does not implement the operation; the one served engine never sends it
)

// Batch body op tags (one per op inside an OpBatch request).
const (
	BatchPut    byte = 1
	BatchDelete byte = 2
)

// ErrFrameTooLarge reports a frame whose declared length exceeds the limit;
// the connection is unrecoverable past it (the stream cannot be resynced).
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// frameLen validates a frame's 4-byte length prefix against max (0 means
// MaxFrame). Every frame read, on either side, goes through it.
func frameLen(hdr []byte, max uint32) (int, error) {
	if max == 0 {
		max = MaxFrame
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < HeaderLen || n > max {
		return 0, fmt.Errorf("%w: length %d (max %d)", ErrFrameTooLarge, n, max)
	}
	return int(n), nil
}

// ReadFrame reads one length-prefixed frame payload into a fresh slice. max
// caps the accepted payload length (0 means MaxFrame). io.EOF is returned
// untouched when the stream ends cleanly between frames so callers can tell
// shutdown from a truncated frame (io.ErrUnexpectedEOF). On a bare socket it
// costs two reads per frame; hand it a bufio.Reader.
func ReadFrame(r io.Reader, max uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := frameLen(hdr[:], max)
	if err != nil {
		return nil, err
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, midFrame(err)
	}
	return p, nil
}

// midFrame turns the end of the stream inside a frame into
// io.ErrUnexpectedEOF.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Reader reads frames for a single consumer that is done with each payload
// before it asks for the next: payloads are lent (they alias the read buffer)
// and a frame that fits the buffer costs no allocation. Errors are
// ReadFrame's.
type Reader struct {
	br   *bufio.Reader
	held int // bytes of the lent frame still to be discarded from br
}

// NewReader reads frames of at most MaxFrame payload bytes from r through a
// buffer of size bytes.
func NewReader(r io.Reader, size int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, size)}
}

// release returns the lent payload's bytes to the buffer.
func (r *Reader) release() {
	if r.held > 0 {
		r.br.Discard(r.held) // cannot fail: they were peeked
		r.held = 0
	}
}

// FrameBuffered reports whether Next can return a frame without reading from
// the underlying stream, i.e. whether a complete valid frame is already
// buffered. It ends the loan of the previous payload.
func (r *Reader) FrameBuffered() bool {
	r.release()
	if r.br.Buffered() < 4 {
		return false
	}
	hdr, _ := r.br.Peek(4)
	n, err := frameLen(hdr, MaxFrame)
	return err == nil && r.br.Buffered() >= 4+n
}

// Next returns the next frame's payload, valid until the next call on r.
func (r *Reader) Next() ([]byte, error) {
	r.release()
	hdr, err := r.br.Peek(4)
	if err != nil {
		if len(hdr) > 0 {
			err = midFrame(err)
		}
		return nil, err
	}
	n, err := frameLen(hdr, MaxFrame)
	if err != nil {
		return nil, err
	}
	if 4+n <= r.br.Size() {
		p, err := r.br.Peek(4 + n)
		if err != nil {
			return nil, midFrame(err)
		}
		r.held = 4 + n
		return p[4:], nil
	}
	// Larger than the buffer: the rare frame gets a slice of its own.
	r.br.Discard(4)
	p := make([]byte, n)
	if _, err := io.ReadFull(r.br, p); err != nil {
		return nil, midFrame(err)
	}
	return p, nil
}

// NewFrame starts a frame in a fresh buffer: 4 reserved length bytes plus
// the header. Append body fields with AppendBytes/AppendUint, then seal with
// Finish.
func NewFrame(id uint64, code byte) []byte {
	return AppendFrame(make([]byte, 0, 64), id, code)
}

// AppendFrame starts a frame at the end of dst, which may already hold sealed
// frames; seal it with FinishAt(buf, len(dst)).
func AppendFrame(dst []byte, id uint64, code byte) []byte {
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return append(dst, code)
}

// Finish fills in the length prefix and returns the wire-ready frame.
func Finish(buf []byte) ([]byte, error) {
	if err := FinishAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// FinishAt fills in the length prefix of the frame that starts at buf[at]
// and runs to the end of buf.
func FinishAt(buf []byte, at int) error {
	n := len(buf) - at - 4
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(n))
	return nil
}

// ParseHeader splits a frame payload into its id, opcode/status, and body.
func ParseHeader(p []byte) (id uint64, code byte, body []byte, err error) {
	if len(p) < HeaderLen {
		return 0, 0, nil, fmt.Errorf("wire: short payload (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint64(p), p[8], p[HeaderLen:], nil
}

// AppendBytes appends a uvarint-length-prefixed byte field.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendUint appends a uvarint field.
func AppendUint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// Bytes pops one length-prefixed byte field.
func Bytes(p []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return nil, nil, errors.New("wire: malformed bytes field")
	}
	return p[w : w+int(n)], p[w+int(n):], nil
}

// Uint pops one uvarint field.
func Uint(p []byte) (v uint64, rest []byte, err error) {
	v, w := binary.Uvarint(p)
	if w <= 0 {
		return 0, nil, errors.New("wire: malformed uvarint field")
	}
	return v, p[w:], nil
}
