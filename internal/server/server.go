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
	// prefix: connection/request counters, commit counters and latency, the
	// engine's healthy gauge, request-latency histogram with slow-op
	// exemplars, and flight-recorder events for accept/shed/slow-request.
	// STATS answers with its snapshot. Nil gives the server a private
	// registry.
	Obs *obs.Registry
	// MaxConns caps concurrently served connections (default 1024); excess
	// accepts are closed immediately.
	MaxConns int
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

// Server serves the wire protocol over TCP (or any net.Listener). Each
// connection is served by one goroutine: it executes reads as they arrive and
// gathers the writes of a pipelined burst, which it commits with one
// Store.ApplyBatch before it reads again. A GET in the same burst as a PUT is
// therefore answered before the PUT's commit, and responses arrive out of
// order (matched by request id). DESIGN.md "Connection model" has the rules.
type Server struct {
	cfg Config

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

	obsCommits      *obs.Counter // bursts committed
	obsCommittedOps *obs.Counter
	commitHist      *obs.Histogram
}

// opNames label the per-opcode request counters.
var opNames = [10]string{"", "get", "put", "delete", "scan", "batch", "snap_begin", "snap_read", "snap_end", "stats"}

// New creates a server around cfg.Store, which is required. Call Serve to
// start accepting.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry() // STATS is the registry snapshot
	}
	reg := cfg.Obs.Sub("server.")
	s := &Server{
		cfg:             cfg,
		conns:           make(map[*srvConn]struct{}),
		reg:             reg,
		fr:              reg.FlightRecorder(),
		obsAccepted:     reg.Counter("conns_accepted"),
		obsRejected:     reg.Counter("conns_rejected"),
		obsClosed:       reg.Counter("conns_closed"),
		obsBadReq:       reg.Counter("bad_requests"),
		reqHist:         reg.Histogram("request_ns"),
		obsCommits:      reg.Counter("commit_batches"),
		obsCommittedOps: reg.Counter("committed_ops"),
		commitHist:      reg.Histogram("commit_ns"),
	}
	for op := 1; op < len(opNames); op++ {
		s.obsOps[op] = reg.Counter("req_" + opNames[op])
	}
	reg.GaugeFunc("conns_active", func() float64 { return float64(s.active.Load()) })
	reg.GaugeFunc("snapshots_active", func() float64 { return float64(s.snapsLive.Load()) })
	// Store.Err as commits and /healthz read it; the error text is in
	// /healthz and in the engine's journal.error record.
	reg.GaugeFunc("healthy", func() float64 {
		if cfg.Store.Err() != nil {
			return 0
		}
		return 1
	})
	return s, nil
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

// startConn registers and serves one connection.
func (s *Server) startConn(nc net.Conn) {
	c := &srvConn{s: s, nc: nc, rd: wire.NewReader(nc, connReadBuf), snaps: make(map[uint64]Snapshot)}
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

// Close stops accepting, closes every connection and waits for their
// goroutines to finish (a commit in flight completes first). The store itself
// is NOT closed — the caller that built it owns it.
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
	return nil
}

// stats is the STATS response body: the registry snapshot as JSON, the
// document /debug/vars serves under "mets".
func (s *Server) stats() []byte {
	b, _ := json.Marshal(s.reg.Snapshot())
	return b
}

// Healthz serves /healthz from Store.Err, which every commit reads too: 200
// "ok" while the engine takes writes, 503 with its sticky error once it does
// not.
func (s *Server) Healthz(w http.ResponseWriter, _ *http.Request) {
	if err := s.cfg.Store.Err(); err != nil {
		http.Error(w, "unhealthy: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// connReadBuf is a connection's read buffer: requests up to this size are
// parsed in place, and a pipelined burst of that many bytes is one read —
// and so at most one commit.
const connReadBuf = 16 << 10

// inlineFlushBytes is how many sealed response bytes the reader lets pile up
// while complete requests are still buffered before it writes them anyway: a
// burst of small reads goes out as one write, a burst of long scans does not
// grow the buffer past this plus one frame.
const inlineFlushBytes = 64 << 10

// srvConn is one served connection, served by one goroutine. It parses frames
// out of rd, executes everything that can be answered on the spot and seals
// those responses into out; the writes it reads go into the burst (ops and
// writes), which commit applies with one Store.ApplyBatch. Before any read
// that can block it writes what is sealed, commits the burst and writes its
// acks — one read and one write per lone GET, one barrier per pipelined burst
// of writes. Snapshots are force-released when the connection ends.
type srvConn struct {
	s  *Server
	nc net.Conn

	rd  *wire.Reader
	out []byte // sealed responses not yet written

	ops    []Op         // the burst's ops, in arrival order
	writes []burstWrite // the burst's requests, each owning its next n ops

	snaps    map[uint64]Snapshot
	snapNext uint64
}

// burstWrite is one PUT, DELETE or BATCH request waiting in the burst.
type burstWrite struct {
	id    uint64
	op    byte
	start time.Time
	n     int
}

func (c *srvConn) serve() {
	c.readLoop()
	c.nc.Close()
	for id, sn := range c.snaps {
		sn.Release()
		delete(c.snaps, id)
		c.s.snapsLive.Add(-1)
	}
}

// reply starts a response in the write buffer and returns where it begins;
// body fields are appended to c.out and sealed by endReply.
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
// back-pressure: nothing more is read, committed or buffered for it until the
// peer drains or Close closes the socket.
func (c *srvConn) flush() bool {
	if len(c.out) == 0 {
		return true
	}
	_, err := c.nc.Write(c.out)
	if cap(c.out) > 2*inlineFlushBytes {
		c.out = nil // a long scan's buffer is not kept for the connection's life
	}
	c.out = c.out[:0]
	return err == nil
}

// commit applies the burst with one Store.ApplyBatch — the ops in order, then
// one durability barrier — and seals every request's ack into out, so no write
// is acked before the barrier covering it has returned nil. An engine that
// has already failed answers every write of the burst ERR, none applied.
func (c *srvConn) commit() {
	err := c.s.cfg.Store.Err()
	var statuses []byte
	if err == nil {
		t0 := time.Now()
		statuses, err = c.s.cfg.Store.ApplyBatch(c.ops)
		c.s.commitHist.ObserveNs(int64(time.Since(t0)))
		c.s.obsCommits.Inc()
		c.s.obsCommittedOps.Add(int64(len(c.ops)))
	}
	off := 0
	for _, w := range c.writes {
		switch {
		case err != nil:
			at := c.reply(w.id, wire.StatusErr)
			c.out = append(c.out, err.Error()...)
			c.endReply(at)
		case w.op == wire.OpBatch:
			at := c.reply(w.id, wire.StatusOK)
			c.out = wire.AppendUint(c.out, uint64(w.n))
			c.out = append(c.out, statuses[off:off+w.n]...)
			c.endReply(at)
		default:
			c.replyStatus(w.id, statuses[off])
		}
		c.observe(w.op, w.start, c.ops[off].Key)
		off += w.n
	}
	clear(c.ops) // the reused slice must not keep the burst's keys alive
	c.ops, c.writes = c.ops[:0], c.writes[:0]
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
		// Nothing waits behind a read that can block: unless a complete next
		// frame is already buffered (a pipelined burst), the reader writes
		// the answers it has sealed — before the commit, so a read in the
		// burst does not wait for the fsync — then commits the burst's
		// writes and writes their acks.
		if !c.rd.FrameBuffered() {
			if !c.flush() {
				return
			}
			if len(c.writes) > 0 {
				c.commit()
				if !c.flush() {
					return
				}
			}
		} else if len(c.out) >= inlineFlushBytes && !c.flush() {
			return
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
			c.gather(id, op, start, Op{Key: append([]byte(nil), key...), Value: v})
		case wire.OpDelete:
			key, _, err := wire.Bytes(body)
			if err != nil {
				c.badRequest(id)
				continue
			}
			c.gather(id, op, start, Op{Delete: true, Key: append([]byte(nil), key...)})
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
			c.gather(id, op, start, ops...)
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

// gather adds one write request and its ops to the burst, which commit
// answers before the next read that can block.
func (c *srvConn) gather(id uint64, op byte, start time.Time, ops ...Op) {
	c.ops = append(c.ops, ops...)
	c.writes = append(c.writes, burstWrite{id: id, op: op, start: start, n: len(ops)})
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
