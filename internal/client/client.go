// Package client is the Go client for the mets wire protocol: a pipelined
// connection (many goroutines may share one; responses are matched to callers
// by request id) and typed errors for the server's backpressure answers.
//
// A Client owns no goroutine. Whoever is waiting for a response reads the
// socket: after writing its request a caller takes the connection's read role
// if it is free, delivers the frames that belong to other callers, and returns
// when its own arrives, handing the role to a caller that is parked waiting.
// A connection used by one goroutine at a time is therefore a plain write
// followed by a plain read; DESIGN.md "Connection model" has the hand-off rule.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"mets/internal/index"
	"mets/internal/wire"
)

// ErrRetryLater is the server's backpressure answer: the write was NOT
// queued (the write queue is full or the engine is backlogged); retry after
// a pause.
var ErrRetryLater = errors.New("client: server busy, retry later")

// ErrBadRequest means the server could not parse the request body.
var ErrBadRequest = errors.New("client: bad request")

// ErrUnsupported means the engine behind the server lacks the capability
// (wire.StatusUnsupported, which the sharded engine never sends).
var ErrUnsupported = errors.New("client: operation unsupported by engine")

// ErrClosed means the connection is gone; in-flight and future calls fail.
var ErrClosed = errors.New("client: connection closed")

// response pairs a status byte with the response body.
type response struct {
	status byte
	body   []byte
}

// call is one in-flight request. All fields are guarded by Client.mu.
type call struct {
	resp response
	err  error
	done bool // resp or err is set
	// parked: the request is on the wire and the caller is blocked on wake,
	// to be woken once — when done, or to take over the read role.
	parked bool
	wake   chan struct{}
}

// Client is one pipelined protocol connection. All methods are safe for
// concurrent use; each in-flight request occupies one pending-table slot and
// responses may return in any order.
type Client struct {
	nc     net.Conn
	nextID atomic.Uint64

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // request frames are built here, under wmu

	rd *wire.Reader // touched only by the holder of the read role

	mu      sync.Mutex
	pending map[uint64]*call
	free    []*call // finished calls, reused so a request allocates none
	reading bool    // a caller holds the read role, or has been handed it
	err     error   // sticky; set once the connection is dead
}

// readBuf is the connection's read buffer: a burst of responses up to this
// size is one read.
const readBuf = 16 << 10

// Dial connects to a mets-server at addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(nc), nil
}

// New wraps an established connection (tests use net.Pipe).
func New(nc net.Conn) *Client {
	return &Client{nc: nc, rd: wire.NewReader(nc, readBuf), pending: make(map[uint64]*call)}
}

// Close tears down the connection; in-flight requests fail with ErrClosed.
func (c *Client) Close() error {
	return c.fail(ErrClosed)
}

// fail marks the connection dead with err, fails every in-flight call and
// closes the socket, which unblocks whoever is reading. Only the first call
// does anything; it returns the socket's close error.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil
	}
	c.err = err
	for id, cl := range c.pending {
		delete(c.pending, id)
		c.finish(cl, response{}, err)
	}
	c.mu.Unlock()
	return c.nc.Close()
}

// finish completes cl and wakes its caller if parked. Caller holds c.mu.
func (c *Client) finish(cl *call, r response, err error) {
	cl.resp, cl.err, cl.done = r, err, true
	c.unpark(cl)
}

func (c *Client) unpark(cl *call) {
	if cl.parked {
		cl.parked = false
		cl.wake <- struct{}{} // cap 1, one send per park: never blocks
	}
}

// do sends one request (header code + body) and waits for its response.
func (c *Client) do(code byte, body func(buf []byte) []byte) (response, error) {
	id := c.nextID.Add(1)

	c.wmu.Lock()
	buf := wire.AppendFrame(c.wbuf[:0], id, code)
	if body != nil {
		buf = body(buf)
	}
	c.wbuf = buf[:0]
	if err := wire.FinishAt(buf, 0); err != nil {
		c.wmu.Unlock()
		return response{}, err
	}
	// Registered before the write: the response can overtake Write's return.
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.wmu.Unlock()
		return response{}, err
	}
	var cl *call
	if n := len(c.free); n > 0 {
		cl, c.free = c.free[n-1], c.free[:n-1]
		*cl = call{wake: cl.wake}
	} else {
		cl = &call{wake: make(chan struct{}, 1)}
	}
	c.pending[id] = cl
	c.mu.Unlock()
	_, werr := c.nc.Write(buf)
	c.wmu.Unlock()
	if werr != nil {
		c.fail(fmt.Errorf("%w: %v", ErrClosed, werr))
	}

	c.mu.Lock()
	if !cl.done && c.reading {
		// Someone else is reading: park until it delivers our response or
		// hands us the role. Only now, with the request on the wire, may the
		// role come our way — see handOff.
		cl.parked = true
		c.mu.Unlock()
		<-cl.wake
		c.mu.Lock()
	}
	if !cl.done {
		c.reading = true // free, or just handed to us
		c.mu.Unlock()
		c.readUntil(cl)
		c.mu.Lock()
	}
	r, err := cl.resp, cl.err
	c.free = append(c.free, cl)
	c.mu.Unlock()
	return r, err
}

// readUntil holds the read role: it delivers responses to their callers until
// own's arrives (or the connection dies), then passes the role on.
func (c *Client) readUntil(own *call) {
	for {
		p, err := c.rd.Next()
		var id uint64
		var r response
		if err == nil {
			id, r.status, r.body, err = wire.ParseHeader(p)
		}
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
		}
		c.mu.Lock()
		if err == nil {
			// A response nobody waits for (unknown id) is dropped.
			if cl := c.pending[id]; cl != nil {
				delete(c.pending, id)
				// The payload is lent until the next read, which may be
				// another caller's; the body leaves with its owner.
				r.body = append([]byte(nil), r.body...)
				c.finish(cl, r, nil)
			}
		}
		if own.done { // by us just now, or by fail
			c.handOff()
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
}

// handOff gives the read role to a parked caller, or frees it. Parked means
// the caller's request is fully written: a caller still blocked in Write must
// not get the role, or a pipelined connection deadlocks once both socket
// buffers fill (the server stops reading because nobody reads its responses).
// Such a caller finds the role free when its Write returns. Caller holds c.mu.
func (c *Client) handOff() {
	for _, cl := range c.pending {
		if cl.parked {
			c.unpark(cl)
			return
		}
	}
	c.reading = false
}

// statusErr maps a non-OK status to a typed error (StatusNotFound is not an
// error; callers handle it).
func statusErr(r response) error {
	switch r.status {
	case wire.StatusOK, wire.StatusNotFound:
		return nil
	case wire.StatusRetryLater:
		return ErrRetryLater
	case wire.StatusBadRequest:
		return ErrBadRequest
	case wire.StatusUnsupported:
		return fmt.Errorf("%w: %s", ErrUnsupported, r.body)
	default:
		return fmt.Errorf("client: server error: %s", r.body)
	}
}

// Get looks up key.
func (c *Client) Get(key []byte) (uint64, bool, error) {
	r, err := c.do(wire.OpGet, func(buf []byte) []byte {
		return wire.AppendBytes(buf, key)
	})
	if err != nil {
		return 0, false, err
	}
	if err := statusErr(r); err != nil {
		return 0, false, err
	}
	if r.status == wire.StatusNotFound {
		return 0, false, nil
	}
	v, _, err := wire.Uint(r.body)
	return v, err == nil, err
}

// Put upserts key -> value. ErrRetryLater means the write was shed by
// admission control and was NOT applied.
func (c *Client) Put(key []byte, value uint64) error {
	r, err := c.do(wire.OpPut, func(buf []byte) []byte {
		buf = wire.AppendBytes(buf, key)
		return wire.AppendUint(buf, value)
	})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// Delete removes key; found reports whether it existed.
func (c *Client) Delete(key []byte) (bool, error) {
	r, err := c.do(wire.OpDelete, func(buf []byte) []byte {
		return wire.AppendBytes(buf, key)
	})
	if err != nil {
		return false, err
	}
	if err := statusErr(r); err != nil {
		return false, err
	}
	return r.status == wire.StatusOK, nil
}

// BatchOp is one write inside a Batch.
type BatchOp struct {
	Delete bool
	Key    []byte
	Value  uint64
}

// Batch applies ops atomically with respect to durability (one group commit)
// and returns one wire status per op.
func (c *Client) Batch(ops []BatchOp) ([]byte, error) {
	r, err := c.do(wire.OpBatch, func(buf []byte) []byte {
		buf = wire.AppendUint(buf, uint64(len(ops)))
		for _, op := range ops {
			if op.Delete {
				buf = append(buf, wire.BatchDelete)
				buf = wire.AppendBytes(buf, op.Key)
			} else {
				buf = append(buf, wire.BatchPut)
				buf = wire.AppendBytes(buf, op.Key)
				buf = wire.AppendUint(buf, op.Value)
			}
		}
		return buf
	})
	if err != nil {
		return nil, err
	}
	if err := statusErr(r); err != nil {
		return nil, err
	}
	n, rest, err := wire.Uint(r.body)
	if err != nil || uint64(len(rest)) < n {
		return nil, fmt.Errorf("client: malformed batch response")
	}
	return append([]byte(nil), rest[:n]...), nil
}

// parseEntries decodes a scan response body.
func parseEntries(body []byte) ([]index.Entry, error) {
	n, rest, err := wire.Uint(body)
	if err != nil {
		return nil, err
	}
	// The count is the peer's word; an entry is at least two bytes.
	if n > uint64(len(rest))/2 {
		return nil, fmt.Errorf("client: malformed scan response")
	}
	out := make([]index.Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		var key []byte
		key, rest, err = wire.Bytes(rest)
		if err != nil {
			return nil, err
		}
		var v uint64
		v, rest, err = wire.Uint(rest)
		if err != nil {
			return nil, err
		}
		out = append(out, index.Entry{Key: append([]byte(nil), key...), Value: v})
	}
	return out, nil
}

// ScanN returns up to n entries with key >= start (nil start = beginning).
// The server caps n at its configured scan limit; fewer entries than n does
// NOT imply the key space is exhausted unless fewer than the cap came back.
func (c *Client) ScanN(start []byte, n int) ([]index.Entry, error) {
	r, err := c.do(wire.OpScan, func(buf []byte) []byte {
		buf = wire.AppendBytes(buf, start)
		return wire.AppendUint(buf, uint64(n))
	})
	if err != nil {
		return nil, err
	}
	if err := statusErr(r); err != nil {
		return nil, err
	}
	return parseEntries(r.body)
}

// Stats fetches the server's JSON stats blob.
func (c *Client) Stats() ([]byte, error) {
	r, err := c.do(wire.OpStats, nil)
	if err != nil {
		return nil, err
	}
	if err := statusErr(r); err != nil {
		return nil, err
	}
	return append([]byte(nil), r.body...), nil
}

// Snapshot is a server-side MVCC snapshot: a point-in-time view that
// concurrent writes and merges never disturb. End releases it.
type Snapshot struct {
	c  *Client
	id uint64
}

// SnapshotBegin captures a snapshot on the server.
func (c *Client) SnapshotBegin() (*Snapshot, error) {
	r, err := c.do(wire.OpSnapBegin, nil)
	if err != nil {
		return nil, err
	}
	if err := statusErr(r); err != nil {
		return nil, err
	}
	id, _, err := wire.Uint(r.body)
	if err != nil {
		return nil, err
	}
	return &Snapshot{c: c, id: id}, nil
}

// Get looks up key in the snapshot.
func (s *Snapshot) Get(key []byte) (uint64, bool, error) {
	r, err := s.c.do(wire.OpSnapRead, func(buf []byte) []byte {
		buf = wire.AppendUint(buf, s.id)
		buf = append(buf, wire.OpGet)
		return wire.AppendBytes(buf, key)
	})
	if err != nil {
		return 0, false, err
	}
	if err := statusErr(r); err != nil {
		return 0, false, err
	}
	if r.status == wire.StatusNotFound {
		return 0, false, nil
	}
	v, _, err := wire.Uint(r.body)
	return v, err == nil, err
}

// ScanN returns up to n snapshot entries with key >= start.
func (s *Snapshot) ScanN(start []byte, n int) ([]index.Entry, error) {
	r, err := s.c.do(wire.OpSnapRead, func(buf []byte) []byte {
		buf = wire.AppendUint(buf, s.id)
		buf = append(buf, wire.OpScan)
		buf = wire.AppendBytes(buf, start)
		return wire.AppendUint(buf, uint64(n))
	})
	if err != nil {
		return nil, err
	}
	if err := statusErr(r); err != nil {
		return nil, err
	}
	return parseEntries(r.body)
}

// End releases the snapshot on the server.
func (s *Snapshot) End() error {
	r, err := s.c.do(wire.OpSnapEnd, func(buf []byte) []byte {
		return wire.AppendUint(buf, s.id)
	})
	if err != nil {
		return err
	}
	return statusErr(r)
}
