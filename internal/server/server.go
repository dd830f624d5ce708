package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mets/internal/index"
	"mets/internal/obs"
	"mets/internal/wire"
)

// Config tunes the server.
type Config struct {
	// Store is the engine the server fronts (required).
	Store Store
	// Obs is the metrics registry the server reports to under a "server."
	// prefix: connection/request counters, shed counters, queue-depth gauge,
	// the engine verdict (healthy, backlogged), request-latency histogram
	// with slow-op exemplars, and flight-recorder events for
	// accept/shed/slow-request. STATS answers with its snapshot. Nil gives
	// the server a private registry.
	Obs *obs.Registry
	// MaxConns caps concurrently served connections (default 1024); excess
	// accepts are closed immediately.
	MaxConns int
	// WriteQueue bounds the coalescer's pending-write queue (default 1024
	// requests). A full queue answers RETRY_LATER — the server never queues
	// writes unboundedly.
	WriteQueue int
	// BatchMax caps ops per commit batch (default 256).
	BatchMax int
	// HealthEvery is how often admission control refreshes the engine
	// health (default 50ms; <= 0 refreshes on every write, which tests use
	// for determinism).
	HealthEvery time.Duration
}

const (
	// maxScan caps entries per SCAN/SNAPSHOT_READ response; clients chunk
	// longer scans.
	maxScan = 1024
	// maxSnapshots caps live snapshots per connection.
	maxSnapshots = 16
	// slowRequest is the latency above which a request is flight-recorded.
	slowRequest = 50 * time.Millisecond
)

// Server serves the wire protocol over TCP (or any net.Listener). Requests
// on one connection are pipelined and answered by whichever goroutine has the
// answer: the connection's reader goroutine executes reads inline and writes
// their responses itself, while writes park in the coalescer and are acked
// from its goroutine through the connection's writer. A GET queued behind a
// fsyncing PUT therefore completes first and responses arrive out of order
// (matched by request id). DESIGN.md "Connection model" has the rules.
type Server struct {
	cfg Config
	co  *coalescer

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*srvConn]struct{}
	closed bool
	connWG sync.WaitGroup

	active    atomic.Int64
	snapsLive atomic.Int64

	reg         *obs.Registry
	fr          *obs.FlightRecorder
	obsAccepted *obs.Counter
	obsRejected *obs.Counter
	obsClosed   *obs.Counter
	obsBadReq   *obs.Counter
	obsOps      [10]*obs.Counter // indexed by opcode
	reqHist     *obs.Histogram
}

// opNames label the per-opcode request counters.
var opNames = [10]string{"", "get", "put", "delete", "scan", "batch", "snap_begin", "snap_read", "snap_end", "stats"}

// New creates a server around cfg.Store. Call Serve to start accepting.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("server: Config.Store is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.WriteQueue <= 0 {
		cfg.WriteQueue = 1024
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 256
	}
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = 50 * time.Millisecond
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry() // STATS is the registry snapshot
	}
	reg := cfg.Obs.Sub("server.")
	s := &Server{
		cfg:         cfg,
		conns:       make(map[*srvConn]struct{}),
		reg:         reg,
		fr:          reg.FlightRecorder(),
		obsAccepted: reg.Counter("conns_accepted"),
		obsRejected: reg.Counter("conns_rejected"),
		obsClosed:   reg.Counter("conns_closed"),
		obsBadReq:   reg.Counter("bad_requests"),
		reqHist:     reg.Histogram("request_ns"),
	}
	for op := 1; op < len(opNames); op++ {
		s.obsOps[op] = reg.Counter("req_" + opNames[op])
	}
	reg.GaugeFunc("conns_active", func() float64 { return float64(s.active.Load()) })
	reg.GaugeFunc("snapshots_active", func() float64 { return float64(s.snapsLive.Load()) })
	// The engine verdict, as /healthz and admission read it; the error text
	// is in /healthz and in the engine's journal.error record.
	flag := func(name string, f func(Health) bool) {
		reg.GaugeFunc(name, func() float64 {
			if f(cfg.Store.Health()) {
				return 1
			}
			return 0
		})
	}
	flag("healthy", func(h Health) bool { return h.Healthy })
	flag("backlogged", func(h Health) bool { return h.Backlogged })
	s.co = newCoalescer(cfg.Store, cfg.WriteQueue, cfg.BatchMax, cfg.HealthEvery, reg)
	return s
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It returns nil after a clean
// Close, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if s.active.Load() >= int64(s.cfg.MaxConns) {
			s.obsRejected.Inc()
			s.fr.Record("server.shed", obs.Str("reason", "max_conns"))
			nc.Close()
			continue
		}
		s.startConn(nc)
	}
}

// Addr returns the serving listener's address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// startConn registers and serves one connection.
func (s *Server) startConn(nc net.Conn) {
	c := &srvConn{s: s, nc: nc, rd: wire.NewReader(nc, connReadBuf), snaps: make(map[uint64]Snapshot)}
	c.q.cond = sync.NewCond(&c.q.mu)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	s.active.Add(1)
	s.obsAccepted.Inc()
	s.fr.Record("server.accept", obs.Str("remote", nc.RemoteAddr().String()))
	go func() {
		defer func() {
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			s.active.Add(-1)
			s.obsClosed.Inc()
			s.fr.Record("server.close", obs.Str("remote", nc.RemoteAddr().String()))
			s.connWG.Done()
		}()
		c.serve()
	}()
}

// Close stops accepting, closes every connection, waits for their handlers
// (and every in-flight write ack) to finish, then stops the coalescer. The
// store itself is NOT closed — the caller that built it owns it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.nc.Close()
	}
	s.connWG.Wait()
	s.co.close()
	return nil
}

// stats is the STATS response body: the registry snapshot as JSON, the
// document /debug/vars serves under "mets".
func (s *Server) stats() []byte {
	b, _ := json.Marshal(s.reg.Snapshot())
	return b
}

// Healthz serves /healthz from the verdict admission control reads: 200 "ok"
// or "ok (backlogged)" while the engine takes writes, 503 with its sticky
// error once it does not.
func (s *Server) Healthz(w http.ResponseWriter, _ *http.Request) {
	switch h := s.cfg.Store.Health(); {
	case !h.Healthy:
		http.Error(w, "unhealthy: "+h.Err, http.StatusServiceUnavailable)
	case h.Backlogged:
		fmt.Fprintln(w, "ok (backlogged)")
	default:
		fmt.Fprintln(w, "ok")
	}
}

// maxConnOutBytes caps a connection's queued-but-unwritten ack bytes; past
// it the peer is a slow consumer and the connection is dropped rather than
// buffering without bound.
const maxConnOutBytes = 32 << 20

// connReadBuf is a connection's read buffer: requests up to this size are
// parsed in place, and a pipelined burst of that many bytes is one read.
const connReadBuf = 16 << 10

// inlineFlushBytes is how many sealed response bytes the reader lets pile up
// while complete requests are still buffered before it writes them anyway: a
// burst of small reads goes out as one write, a burst of long scans does not
// grow the buffer past this plus one frame.
const inlineFlushBytes = 64 << 10

// outQueue hands ack frames from the coalescer's done callbacks to the
// connection's writer goroutine. push never blocks (the coalescer must never
// stall on one slow client), so the queue is unbounded in frame count and
// bounded in bytes by the slow-consumer kill in push.
type outQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames [][]byte
	bytes  int
	closed bool
}

func (q *outQueue) push(b []byte) (overflow bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.frames = append(q.frames, b)
	q.bytes += len(b)
	overflow = q.bytes > maxConnOutBytes
	q.cond.Signal()
	q.mu.Unlock()
	return overflow
}

// pop blocks until a frame or close; close drains remaining frames first.
func (q *outQueue) pop() ([]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.frames) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.frames) == 0 {
		return nil, false
	}
	b := q.frames[0]
	q.frames[0] = nil
	q.frames = q.frames[1:]
	q.bytes -= len(b)
	return b, true
}

func (q *outQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// srvConn is one served connection. Its reader goroutine parses frames out of
// rd, executes everything that can be answered on the spot and seals those
// responses into out, which it writes itself before any read that can block
// — one goroutine, one read and one write per lone GET. Writes go to the
// coalescer, whose done callbacks (on its goroutine, which must never touch a
// socket) push their acks onto q for the writer goroutine. wmu keeps the two
// writers' frames from interleaving. Snapshots are owned by the reader
// goroutine and force-released when the connection ends.
type srvConn struct {
	s  *Server
	nc net.Conn

	rd  *wire.Reader // reader goroutine only
	out []byte       // reader goroutine only: sealed responses not yet written

	wmu sync.Mutex // held across each socket write
	q   outQueue

	// pend tracks writes admitted to the coalescer whose done callback has
	// not yet run; the out queue closes only after they all land.
	pend sync.WaitGroup

	snaps    map[uint64]Snapshot
	snapNext uint64
}

func (c *srvConn) serve() {
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var werr error
		for {
			b, ok := c.q.pop()
			if !ok {
				break
			}
			if werr != nil {
				continue // drain so pushers' frames are consumed
			}
			if werr = c.write(b); werr != nil {
				c.nc.Close() // unblock the reader
			}
		}
		c.nc.Close()
	}()
	c.readLoop()
	// Reader done: no new snapshots or admits. Release snapshot pins, wait
	// out in-flight write acks, then let the writer drain and exit.
	for id, sn := range c.snaps {
		sn.Release()
		delete(c.snaps, id)
		c.s.snapsLive.Add(-1)
	}
	c.pend.Wait()
	c.q.close()
	<-writerDone
}

// write puts whole frames on the socket, one writer at a time.
func (c *srvConn) write(b []byte) error {
	c.wmu.Lock()
	_, err := c.nc.Write(b)
	c.wmu.Unlock()
	return err
}

// reply starts a response in the reader's write buffer and returns where it
// begins; body fields are appended to c.out and sealed by endReply.
func (c *srvConn) reply(id uint64, code byte) int {
	at := len(c.out)
	c.out = wire.AppendFrame(c.out, id, code)
	return at
}

func (c *srvConn) endReply(at int) {
	if err := wire.FinishAt(c.out, at); err != nil {
		// Response overflowed the frame limit (cannot happen with the scan
		// caps, but fail closed rather than desync the stream).
		c.out = c.out[:at]
		c.nc.Close()
	}
}

// replyStatus answers with a bare status.
func (c *srvConn) replyStatus(id uint64, code byte) {
	c.endReply(c.reply(id, code))
}

// flush writes the sealed responses; false means the connection is dead. The
// write may block on a peer that does not read — that is this connection's
// back-pressure: nothing more is read or buffered for it until the peer
// drains or Close closes the socket.
func (c *srvConn) flush() bool {
	err := c.write(c.out)
	if cap(c.out) > 2*inlineFlushBytes {
		c.out = nil // a long scan's buffer is not kept for the connection's life
	}
	c.out = c.out[:0]
	if err != nil {
		c.nc.Close()
	}
	return err == nil
}

// ack queues a response produced off the reader goroutine; on overflow the
// connection is killed (slow consumer).
func (c *srvConn) ack(buf []byte) {
	frame, err := wire.Finish(buf)
	if err != nil {
		c.nc.Close() // as endReply: fail closed
		return
	}
	if c.q.push(frame) {
		c.fr().Record("server.shed", obs.Str("reason", "slow_consumer"))
		c.nc.Close()
	}
}

func (c *srvConn) fr() *obs.FlightRecorder { return c.s.fr }

// observe records one request's latency (histogram + slow-request flight
// event). key is tagged onto the exemplar, nil when there is no key.
func (c *srvConn) observe(op byte, start time.Time, key []byte) {
	ns := int64(time.Since(start))
	const tagLen = 8 // a short exemplar/flight tag
	if len(key) > tagLen {
		key = key[:tagLen]
	}
	c.s.reqHist.ObserveExemplar(ns, 0, key)
	if ns >= int64(slowRequest) {
		c.fr().Record("server.slow_request",
			obs.Str("op", opNames[op]), obs.Str("key", string(key)), obs.I64("ns", ns))
	}
}

func (c *srvConn) readLoop() {
	for {
		// Answers never wait behind a read that can block: unless a complete
		// next frame is already buffered (a pipelined burst, answered with
		// one write), what is sealed goes out first.
		if len(c.out) > 0 && (len(c.out) >= inlineFlushBytes || !c.rd.FrameBuffered()) {
			if !c.flush() {
				return
			}
		}
		p, err := c.rd.Next() // lent: every op that outlives the loop body copies its key
		if err != nil {
			return // EOF, closed, or an unrecoverable framing error
		}
		id, op, body, err := wire.ParseHeader(p)
		if err != nil {
			return
		}
		if op >= 1 && op < byte(len(opNames)) {
			c.s.obsOps[op].Inc()
		}
		start := time.Now()
		switch op {
		case wire.OpGet:
			key, _, err := wire.Bytes(body)
			if err != nil {
				c.badRequest(id)
				continue
			}
			v, found := c.s.cfg.Store.Get(key)
			c.respondGet(id, v, found)
			c.observe(op, start, key)
		case wire.OpScan:
			start2, limit, ok := parseScan(body)
			if !ok {
				c.badRequest(id)
				continue
			}
			c.respondEntries(id, c.s.cfg.Store.ScanN(start2, c.capScan(limit)))
			c.observe(op, start, start2)
		case wire.OpPut:
			key, rest, err := wire.Bytes(body)
			var v uint64
			if err == nil {
				v, _, err = wire.Uint(rest)
			}
			if err != nil {
				c.badRequest(id)
				continue
			}
			c.admitWrite(id, op, start, []Op{{Key: append([]byte(nil), key...), Value: v}}, false)
		case wire.OpDelete:
			key, _, err := wire.Bytes(body)
			if err != nil {
				c.badRequest(id)
				continue
			}
			c.admitWrite(id, op, start, []Op{{Delete: true, Key: append([]byte(nil), key...)}}, false)
		case wire.OpBatch:
			ops, ok := parseBatch(body)
			if !ok {
				c.badRequest(id)
				continue
			}
			if len(ops) == 0 {
				// Nothing to commit; answer an empty status list directly.
				at := c.reply(id, wire.StatusOK)
				c.out = wire.AppendUint(c.out, 0)
				c.endReply(at)
				c.observe(op, start, nil)
				continue
			}
			c.admitWrite(id, op, start, ops, true)
		case wire.OpSnapBegin:
			c.snapBegin(id)
			c.observe(op, start, nil)
		case wire.OpSnapRead:
			c.snapRead(id, body, start)
		case wire.OpSnapEnd:
			sid, _, err := wire.Uint(body)
			if err != nil {
				c.badRequest(id)
				continue
			}
			sn, ok := c.snaps[sid]
			if !ok {
				c.badRequest(id)
				continue
			}
			sn.Release()
			delete(c.snaps, sid)
			c.s.snapsLive.Add(-1)
			c.replyStatus(id, wire.StatusOK)
			c.observe(op, start, nil)
		case wire.OpStats:
			at := c.reply(id, wire.StatusOK)
			c.out = append(c.out, c.s.stats()...)
			c.endReply(at)
			c.observe(op, start, nil)
		default:
			c.badRequest(id)
		}
	}
}

func (c *srvConn) badRequest(id uint64) {
	c.s.obsBadReq.Inc()
	c.replyStatus(id, wire.StatusBadRequest)
}

func (c *srvConn) capScan(limit uint64) int {
	if limit == 0 || limit > maxScan {
		return maxScan
	}
	return int(limit)
}

func (c *srvConn) respondGet(id uint64, v uint64, ok bool) {
	if !ok {
		c.replyStatus(id, wire.StatusNotFound)
		return
	}
	at := c.reply(id, wire.StatusOK)
	c.out = wire.AppendUint(c.out, v)
	c.endReply(at)
}

func (c *srvConn) respondEntries(id uint64, es []index.Entry) {
	at := c.reply(id, wire.StatusOK)
	c.out = wire.AppendUint(c.out, uint64(len(es)))
	for _, e := range es {
		c.out = wire.AppendBytes(c.out, e.Key)
		c.out = wire.AppendUint(c.out, e.Value)
	}
	c.endReply(at)
}

// parseScan decodes a SCAN body: start key (empty = from the beginning) and
// a uvarint limit.
func parseScan(body []byte) (start []byte, limit uint64, ok bool) {
	start, rest, err := wire.Bytes(body)
	if err != nil {
		return nil, 0, false
	}
	limit, _, err = wire.Uint(rest)
	if err != nil {
		return nil, 0, false
	}
	if len(start) == 0 {
		start = nil
	}
	return start, limit, true
}

// maxBatchOps bounds one BATCH request (the frame size bounds it anyway;
// this keeps a tight explicit limit).
const maxBatchOps = 4096

func parseBatch(body []byte) ([]Op, bool) {
	n, rest, err := wire.Uint(body)
	if err != nil || n > maxBatchOps {
		return nil, false
	}
	ops := make([]Op, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(rest) == 0 {
			return nil, false
		}
		tag := rest[0]
		rest = rest[1:]
		var key []byte
		key, rest, err = wire.Bytes(rest)
		if err != nil {
			return nil, false
		}
		switch tag {
		case wire.BatchPut:
			var v uint64
			v, rest, err = wire.Uint(rest)
			if err != nil {
				return nil, false
			}
			ops = append(ops, Op{Key: append([]byte(nil), key...), Value: v})
		case wire.BatchDelete:
			ops = append(ops, Op{Delete: true, Key: append([]byte(nil), key...)})
		default:
			return nil, false
		}
	}
	return ops, true
}

// admitWrite hands ops to the coalescer, whose done callback acks through the
// out queue; a rejected admit is answered here, by the reader (RETRY_LATER
// under backpressure).
func (c *srvConn) admitWrite(id uint64, op byte, start time.Time, ops []Op, batch bool) {
	firstKey := ops[0].Key
	c.pend.Add(1)
	req := &writeReq{ops: ops, done: func(statuses []byte, err error) {
		defer c.pend.Done()
		switch {
		case err != nil:
			buf := wire.NewFrame(id, wire.StatusErr)
			buf = append(buf, err.Error()...)
			c.ack(buf)
		case batch:
			buf := wire.NewFrame(id, wire.StatusOK)
			buf = wire.AppendUint(buf, uint64(len(statuses)))
			buf = append(buf, statuses...)
			c.ack(buf)
		default:
			c.ack(wire.NewFrame(id, statuses[0]))
		}
		c.observe(op, start, firstKey)
	}}
	if st := c.s.co.admit(req); st != wire.StatusOK {
		c.pend.Done()
		c.replyStatus(id, st)
		c.observe(op, start, firstKey)
	}
}

func (c *srvConn) snapBegin(id uint64) {
	if len(c.snaps) >= maxSnapshots {
		at := c.reply(id, wire.StatusErr)
		c.out = append(c.out, "too many snapshots on this connection"...)
		c.endReply(at)
		return
	}
	sn, err := c.s.cfg.Store.Snapshot()
	if err != nil {
		at := c.reply(id, wire.StatusErr)
		c.out = append(c.out, err.Error()...)
		c.endReply(at)
		return
	}
	c.snapNext++
	sid := c.snapNext
	c.snaps[sid] = sn
	c.s.snapsLive.Add(1)
	at := c.reply(id, wire.StatusOK)
	c.out = wire.AppendUint(c.out, sid)
	c.endReply(at)
}

func (c *srvConn) snapRead(id uint64, body []byte, start time.Time) {
	sid, rest, err := wire.Uint(body)
	if err != nil || len(rest) == 0 {
		c.badRequest(id)
		return
	}
	sn, ok := c.snaps[sid]
	if !ok {
		c.badRequest(id)
		return
	}
	sub := rest[0]
	rest = rest[1:]
	switch sub {
	case wire.OpGet:
		key, _, err := wire.Bytes(rest)
		if err != nil {
			c.badRequest(id)
			return
		}
		v, found := sn.Get(key)
		c.respondGet(id, v, found)
		c.observe(wire.OpSnapRead, start, key)
	case wire.OpScan:
		start2, limit, ok := parseScan(rest)
		if !ok {
			c.badRequest(id)
			return
		}
		c.respondEntries(id, sn.ScanN(start2, c.capScan(limit)))
		c.observe(wire.OpSnapRead, start, start2)
	default:
		c.badRequest(id)
	}
}
