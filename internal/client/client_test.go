package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mets/internal/wire"
)

// watchdog fails the process with every goroutine's stack if the test is
// still running after d: the failures these tests look for are hangs.
func watchdog(t *testing.T, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		panic(fmt.Sprintf("%s: still running after %v", t.Name(), d))
	})
	t.Cleanup(func() { timer.Stop() })
}

// tcpPair is a connected loopback TCP pair (buffered by the kernel).
func tcpPair(t *testing.T) (cli, srv net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		acc <- c
	}()
	cli, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if srv = <-acc; srv == nil {
		t.Fatal("accept failed")
	}
	return cli, srv
}

// pipePair is net.Pipe: unbuffered, so a Write completes only when the other
// end reads — a client that leaves responses unread stalls its peer at once.
func pipePair(*testing.T) (cli, srv net.Conn) { return net.Pipe() }

var transports = map[string]func(*testing.T) (cli, srv net.Conn){"tcp": tcpPair, "pipe": pipePair}

// request is one frame the peer received.
type request struct {
	id   uint64
	op   byte
	body []byte
}

// readRequests parses the client's frames off nc into a channel, closed when
// the stream ends.
func readRequests(nc net.Conn) <-chan request {
	ch := make(chan request)
	go func() {
		defer close(ch)
		fr := wire.NewReader(nc, 4096)
		for {
			p, err := fr.Next()
			if err != nil {
				return
			}
			p = bytes.Clone(p) // the request outlives the reader's loan
			id, op, body, _ := wire.ParseHeader(p)
			ch <- request{id, op, body}
		}
	}()
	return ch
}

// valueFor is the value the scripted peer stores under a GET's key.
func valueFor(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.LittleEndian.Uint64(b[:]) ^ 0x5a5a
}

// answerGet builds the response frame to a GET request.
func answerGet(r request) []byte {
	key, _, _ := wire.Bytes(r.body)
	frame, _ := wire.Finish(wire.AppendUint(wire.NewFrame(r.id, wire.StatusOK), valueFor(key)))
	return frame
}

// shufflingPeer answers GETs out of order and in bursts: it gathers whatever
// requests have arrived, shuffles them together with those it held back,
// writes a random prefix of them as ONE write and holds the rest back for a
// later round (all of them once nothing new arrives).
func shufflingPeer(nc net.Conn, seed int64, done chan<- struct{}) {
	defer close(done)
	rng := rand.New(rand.NewSource(seed))
	reqs := readRequests(nc)
	var held []request
	for {
		fresh := 0
		if len(held) == 0 {
			r, ok := <-reqs
			if !ok {
				return
			}
			held, fresh = append(held, r), 1
		}
	drain:
		for {
			select {
			case r, ok := <-reqs:
				if !ok {
					return
				}
				held, fresh = append(held, r), fresh+1
			default:
				break drain
			}
		}
		rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
		n := len(held)
		if fresh > 0 {
			n = 1 + rng.Intn(len(held))
		}
		var burst []byte
		for _, r := range held[:n] {
			burst = append(burst, answerGet(r)...)
		}
		held = held[n:]
		if _, err := nc.Write(burst); err != nil {
			return
		}
	}
}

// TestSharedClient: N goroutines share one Client against a peer that answers
// out of order and in bursts; every call gets exactly its own answer. Over
// net.Pipe it hangs (watchdog) if responses are owed and nobody holds the read
// role, or the role went to a caller still blocked in Write.
func TestSharedClient(t *testing.T) {
	for name, pair := range transports {
		t.Run(name, func(t *testing.T) {
			watchdog(t, 60*time.Second)
			base := runtime.NumGoroutine()
			cliEnd, srvEnd := pair(t)
			peerDone := make(chan struct{})
			go shufflingPeer(srvEnd, 7, peerDone)
			c := New(cliEnd)

			const callers, perCaller = 12, 150
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perCaller; i++ {
						key := []byte(fmt.Sprintf("g%02d-%05d", g, i))
						v, ok, err := c.Get(key)
						if err != nil || !ok || v != valueFor(key) {
							t.Errorf("Get(%s) = (%d,%v,%v), want %d", key, v, ok, err, valueFor(key))
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if err := c.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			srvEnd.Close()
			<-peerDone
			waitGoroutines(t, base)
		})
	}
}

// waitGoroutines waits for the goroutine count to return to base: the client
// owns none, so whatever the test itself started is all there is to wait for.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: base %d, now %d\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientOwnsNoGoroutine: New starts nothing, a round trip leaves nothing
// behind, and neither does Close.
func TestClientOwnsNoGoroutine(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	defer srvEnd.Close()
	base := runtime.NumGoroutine()
	c := New(cliEnd)
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("New started %d goroutine(s)", n-base)
	}
	peerDone := make(chan struct{})
	go func() { // the only goroutine this test adds
		defer close(peerDone)
		for r := range readRequests(srvEnd) {
			srvEnd.Write(answerGet(r))
		}
	}()
	for i := 0; i < 10; i++ {
		if _, _, err := c.Get([]byte("k")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	<-peerDone
	waitGoroutines(t, base)
}

// countConn counts socket calls, to show that a dead client stops making any.
type countConn struct {
	net.Conn
	calls atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error)  { c.calls.Add(1); return c.Conn.Read(p) }
func (c *countConn) Write(p []byte) (int, error) { c.calls.Add(1); return c.Conn.Write(p) }

// inFlight starts k Gets on c and returns once the peer has received all k
// requests (so every call is past its Write); results arrive on the channel.
func inFlight(t *testing.T, c *Client, reqs <-chan request, k int) <-chan error {
	t.Helper()
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func(i int) {
			_, _, err := c.Get([]byte(fmt.Sprintf("key%d", i)))
			errs <- err
		}(i)
	}
	for i := 0; i < k; i++ {
		if _, ok := <-reqs; !ok {
			t.Fatal("peer lost the connection while collecting requests")
		}
	}
	return errs
}

// TestConnectionDeathFailsEveryCall: the connection dies with k calls in
// flight — the peer hangs up, the socket is closed underneath the client, or
// Close is called — and every one of them returns an error wrapping ErrClosed;
// later calls fail fast without touching the socket.
func TestConnectionDeathFailsEveryCall(t *testing.T) {
	kills := map[string]func(c *Client, cli, srv net.Conn){
		"peer closes":   func(_ *Client, _, srv net.Conn) { srv.Close() },
		"socket killed": func(_ *Client, cli, _ net.Conn) { cli.Close() },
		"Close":         func(c *Client, _, _ net.Conn) { c.Close() },
	}
	for tname, pair := range transports {
		for kname, kill := range kills {
			t.Run(tname+"/"+kname, func(t *testing.T) {
				watchdog(t, 30*time.Second)
				base := runtime.NumGoroutine()
				cliEnd, srvEnd := pair(t)
				defer srvEnd.Close()
				cc := &countConn{Conn: cliEnd}
				c := New(cc)
				const k = 9
				errs := inFlight(t, c, readRequests(srvEnd), k)
				kill(c, cliEnd, srvEnd)
				for i := 0; i < k; i++ {
					if err := <-errs; !errors.Is(err, ErrClosed) {
						t.Errorf("in-flight call returned %v, want an error wrapping ErrClosed", err)
					}
				}
				calls := cc.calls.Load()
				for i := 0; i < 3; i++ {
					if err := c.Put([]byte("late"), 1); !errors.Is(err, ErrClosed) {
						t.Errorf("call after death returned %v, want an error wrapping ErrClosed", err)
					}
				}
				if got := cc.calls.Load(); got != calls {
					t.Errorf("%d socket call(s) after the connection died", got-calls)
				}
				if err := c.Close(); err != nil {
					t.Errorf("Close after death: %v", err)
				}
				srvEnd.Close()
				waitGoroutines(t, base)
			})
		}
	}
}

// TestCloseIdle: Close with nobody in flight, twice, then a call.
func TestCloseIdle(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	defer srvEnd.Close()
	c := New(cliEnd)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := c.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := srvEnd.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read data after Close")
	}
}

// TestUnknownIDDropped: a response nobody waits for does not wedge the
// reader; the real answer behind it is delivered, and so is the next call's.
func TestUnknownIDDropped(t *testing.T) {
	watchdog(t, 30*time.Second)
	cliEnd, srvEnd := net.Pipe()
	defer srvEnd.Close()
	c := New(cliEnd)
	defer c.Close()
	go func() {
		for r := range readRequests(srvEnd) {
			stray := request{id: r.id + 1<<40, body: wire.AppendBytes(nil, []byte("stray"))}
			srvEnd.Write(append(answerGet(stray), answerGet(r)...))
		}
	}()
	for i := 0; i < 5; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if v, ok, err := c.Get(key); err != nil || !ok || v != valueFor(key) {
			t.Fatalf("Get(%s) = (%d,%v,%v)", key, v, ok, err)
		}
	}
}

// hookConn calls onWrite as a Write begins.
type hookConn struct {
	net.Conn
	onWrite func()
}

func (h *hookConn) Write(p []byte) (int, error) {
	h.onWrite()
	return h.Conn.Write(p)
}

// TestReadRoleSkipsCallerStillWriting drives the hand-off rule by hand over
// net.Pipe. A holds the read role, C is parked with its request delivered, B
// is blocked in Write because the peer has not read it. When A's answer comes,
// the role must go to C: handed to B, C's answer would never be read, the peer
// would never get to B's request, and all three would hang.
func TestReadRoleSkipsCallerStillWriting(t *testing.T) {
	watchdog(t, 30*time.Second)
	cliEnd, srvEnd := net.Pipe()
	defer srvEnd.Close()
	writes := make(chan struct{}, 3)
	c := New(&hookConn{Conn: cliEnd, onWrite: func() { writes <- struct{}{} }})
	defer c.Close()
	fr := wire.NewReader(srvEnd, 4096)
	readReq := func() request {
		p, err := fr.Next()
		if err != nil {
			t.Fatalf("peer read: %v", err)
		}
		p = bytes.Clone(p) // the request outlives the reader's loan
		id, op, body, _ := wire.ParseHeader(p)
		return request{id, op, body}
	}
	results := make(chan string, 3)
	get := func(name string) {
		key := []byte(name)
		v, ok, err := c.Get(key)
		if err != nil || !ok || v != valueFor(key) {
			t.Errorf("Get(%s) = (%d,%v,%v)", name, v, ok, err)
		}
		results <- name
	}

	go get("A")
	<-writes
	a := readReq() // A's Write returns; A takes the read role
	go get("C")
	<-writes
	cReq := readReq() // C's Write returns; C parks behind A
	// A and C must be where the scenario needs them before B arrives; they
	// get there without any further event the peer could wait for.
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		cl := c.pending[cReq.id]
		return c.reading && cl != nil && cl.parked
	})
	go get("B")
	<-writes // B is in Write and stays there: the peer is not reading

	srvEnd.Write(answerGet(a))
	if got := <-results; got != "A" {
		t.Fatalf("%s returned first, want A", got)
	}
	srvEnd.Write(answerGet(cReq)) // read only if the role went to C
	if got := <-results; got != "C" {
		t.Fatalf("%s returned second, want C", got)
	}
	srvEnd.Write(answerGet(readReq())) // now B's request gets through
	if got := <-results; got != "B" {
		t.Fatalf("%s returned third, want B", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestScanEntryCountIsBounded: a response that declares more entries than its
// body could hold is a malformed response, not a 2^60-entry allocation.
func TestScanEntryCountIsBounded(t *testing.T) {
	for _, n := range []uint64{1 << 60, 1 << 32, 3} {
		body := wire.AppendUint(nil, n)
		body = wire.AppendUint(wire.AppendBytes(body, []byte("k")), 1) // one real entry: 3 bytes
		if es, err := parseEntries(body); err == nil {
			t.Fatalf("parseEntries with count %d over one entry = %d entries, want an error", n, len(es))
		}
	}
	// The same through a live connection: the crafted frame fails the call
	// and leaves the connection usable.
	watchdog(t, 30*time.Second)
	cliEnd, srvEnd := net.Pipe()
	defer srvEnd.Close()
	c := New(cliEnd)
	defer c.Close()
	go func() {
		for r := range readRequests(srvEnd) {
			if r.op == wire.OpScan {
				frame, _ := wire.Finish(wire.AppendUint(wire.NewFrame(r.id, wire.StatusOK), 1<<60))
				srvEnd.Write(frame)
				continue
			}
			srvEnd.Write(answerGet(r))
		}
	}()
	if es, err := c.ScanN(nil, 10); err == nil {
		t.Fatalf("ScanN over a hostile count = %d entries, want an error", len(es))
	}
	if _, _, err := c.Get([]byte("after")); err != nil {
		t.Fatalf("Get after the malformed scan: %v", err)
	}
	// A well-formed response still parses.
	body := wire.AppendUint(nil, 2)
	body = wire.AppendUint(wire.AppendBytes(body, []byte("a")), 1)
	body = wire.AppendUint(wire.AppendBytes(body, nil), 2) // the two-byte minimum entry
	es, err := parseEntries(body)
	if err != nil || len(es) != 2 || !bytes.Equal(es[0].Key, []byte("a")) || es[1].Value != 2 {
		t.Fatalf("parseEntries = (%v,%v)", es, err)
	}
}
