package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"mets/internal/index"
	"mets/internal/wire"
)

// pipeConn hands the server one end of a net.Pipe (unbuffered: a write on
// either side completes only when the other side reads) and returns the
// peer's end.
func pipeConn(s *Server) net.Conn {
	cliEnd, srvEnd := net.Pipe()
	s.startConn(srvEnd)
	return cliEnd
}

func getFrame(id uint64, key string) []byte {
	f, _ := wire.Finish(wire.AppendBytes(wire.NewFrame(id, wire.OpGet), []byte(key)))
	return f
}

func scanFrame(id uint64, start string, limit uint64) []byte {
	f, _ := wire.Finish(wire.AppendUint(wire.AppendBytes(wire.NewFrame(id, wire.OpScan), []byte(start)), limit))
	return f
}

func putFrame(id uint64, key string, v uint64) []byte {
	f, _ := wire.Finish(wire.AppendUint(wire.AppendBytes(wire.NewFrame(id, wire.OpPut), []byte(key)), v))
	return f
}

// closeWithin fails the test if Server.Close does not return in d.
func closeWithin(t *testing.T, s *Server, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("Server.Close still running after %v\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// TestInlineReplyNotHeldByPartialFrame: one write carries a whole GET and the
// first half of a second frame. The GET's answer must arrive before the second
// half is sent — the reader may hold answers back only while a COMPLETE frame
// is buffered, not while any bytes are.
func TestInlineReplyNotHeldByPartialFrame(t *testing.T) {
	stub := newStubStore()
	stub.m["a"], stub.m["b"] = 1, 2
	s := newServer(t, Config{Store: stub})
	defer s.Close()
	for split := 1; split < len(getFrame(2, "b")); split++ {
		nc := pipeConn(s)
		second := getFrame(2, "b")
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(append(getFrame(1, "a"), second[:split]...)); err != nil {
			t.Fatalf("split %d: write: %v", split, err)
		}
		br := wire.NewReader(nc, 4096)
		expect := func(id, v uint64) {
			t.Helper()
			p, err := br.Next()
			if err != nil {
				t.Fatalf("split %d: answer %d did not arrive: %v", split, id, err)
			}
			gotID, st, body, _ := wire.ParseHeader(p)
			got, _, _ := wire.Uint(body)
			if gotID != id || st != wire.StatusOK || got != v {
				t.Fatalf("split %d: answer = (id %d, status %d, value %d), want (%d, OK, %d)", split, gotID, st, got, id, v)
			}
		}
		expect(1, 1)
		if _, err := nc.Write(second[split:]); err != nil {
			t.Fatalf("split %d: write of the second half: %v", split, err)
		}
		expect(2, 2)
		nc.Close()
	}
}

// scanStore answers every ScanN with n fixed entries.
type scanStore struct {
	*stubStore
	entries []index.Entry
}

func (s scanStore) ScanN(_ []byte, n int) []index.Entry { return s.entries[:min(n, len(s.entries))] }

// newScanStore holds 1024 entries with 11-byte keys: a full-limit SCAN answer
// is about 14 KiB.
func newScanStore() scanStore {
	s := scanStore{stubStore: newStubStore()}
	for i := 0; i < 1024; i++ {
		s.entries = append(s.entries, index.Entry{Key: []byte(fmt.Sprintf("key%08d", i)), Value: uint64(i)})
	}
	return s
}

// TestPipelinedReadsToPeerThatNeverReads: a peer pipelines GETs and SCANs and
// reads nothing. The connection's goroutine blocks in its own write, so it
// stops consuming requests (the peer's write stalls with bytes left over:
// memory on the server is bounded by what was already buffered), and
// Server.Close still returns and takes the connection's goroutine with it.
func TestPipelinedReadsToPeerThatNeverReads(t *testing.T) {
	stallPeerThatNeverReads(t, newScanStore(), func(i uint64) []byte {
		return append(getFrame(2*i, "k"), scanFrame(2*i+1, "", 1024)...)
	})
}

// TestPipelinedWritesToPeerThatNeverReads is the same for a burst of PUTs: the
// goroutine commits the burst it has read, blocks writing the acks, and reads
// nothing more — no ack is queued off the socket for a peer that never reads.
func TestPipelinedWritesToPeerThatNeverReads(t *testing.T) {
	stub := newStubStore()
	close(stub.release)
	stallPeerThatNeverReads(t, stub, func(i uint64) []byte { return putFrame(i, fmt.Sprintf("k%d", i), i) })
}

// stallPeerThatNeverReads pipelines 4*connReadBuf bytes of requests (request
// i is frames(i)) at a server over net.Pipe and reads none of the answers.
func stallPeerThatNeverReads(t *testing.T, store Store, frames func(i uint64) []byte) {
	base := runtime.NumGoroutine()
	s := newServer(t, Config{Store: store})
	nc := pipeConn(s)
	defer nc.Close()

	var burst []byte
	for i := uint64(0); len(burst) < 4*connReadBuf; i++ {
		burst = append(burst, frames(i)...)
	}
	nc.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
	n, err := nc.Write(burst)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write of %d pipelined bytes to a server whose answers nobody reads: n=%d err=%v, want a stall", len(burst), n, err)
	}
	if n > 2*connReadBuf {
		t.Fatalf("server consumed %d request bytes with its first answers still unread (read buffer %d)", n, connReadBuf)
	}
	closeWithin(t, s, 5*time.Second)
	waitGoroutines(t, base)
}

// TestPipelinedBurstIsAnsweredInFewWrites: the same burst to a peer that does
// read. Over net.Pipe one Read returns at most one Write, so the reads show
// the server's writes: every request is answered, small answers to a burst
// share a write, and no write grows past inlineFlushBytes plus one response.
func TestPipelinedBurstIsAnsweredInFewWrites(t *testing.T) {
	store := newScanStore()
	store.m["k"] = 9
	s := newServer(t, Config{Store: store})
	defer s.Close()
	nc := pipeConn(s)
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(20 * time.Second))

	const gets, scans = 300, 40
	var burst []byte
	for i := uint64(0); i < gets; i++ {
		burst = append(burst, getFrame(i, "k")...)
	}
	for i := uint64(0); i < scans; i++ {
		burst = append(burst, scanFrame(gets+i, "", 1024)...)
	}
	go nc.Write(burst)

	oneScan := 4 + wire.HeaderLen + 2 + 1024*(1+11+2)
	chunk := make([]byte, 4<<20)
	var stream []byte
	writes, frames := 0, 0
	for frames < gets+scans {
		n, err := nc.Read(chunk)
		if err != nil {
			t.Fatalf("after %d answers: %v", frames, err)
		}
		if n > inlineFlushBytes+oneScan {
			t.Fatalf("one server write of %d bytes: the inline buffer is not bounded", n)
		}
		writes++
		stream = append(stream, chunk[:n]...)
		for len(stream) >= 4 {
			size := 4 + int(binary.LittleEndian.Uint32(stream))
			if len(stream) < size {
				break
			}
			if id, st, _, _ := wire.ParseHeader(stream[4:size]); id != uint64(frames) || st != wire.StatusOK {
				t.Fatalf("answer %d: id %d status %d (inline answers keep request order)", frames, id, st)
			}
			frames++
			stream = stream[size:]
		}
	}
	if writes > (gets+scans)/4 {
		t.Fatalf("%d answers took %d writes: a pipelined burst should share writes", gets+scans, writes)
	}
	t.Logf("%d answers in %d writes", frames, writes)
}

// TestGetOvertakesPendingPut is pipelining's guarantee within one burst: a GET
// that arrives in the same write as a PUT is answered before the PUT's commit
// returns — here it never would, being wedged — and the PUT is acked only once
// the commit does return.
func TestGetOvertakesPendingPut(t *testing.T) {
	stub := newStubStore()
	stub.m["k"] = 7
	release := sync.OnceFunc(func() { close(stub.release) })
	s := newServer(t, Config{Store: stub})
	defer s.Close()
	defer release() // before Close, which waits for the wedged commit
	nc := pipeConn(s)
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := nc.Write(append(putFrame(1, "w", 1), getFrame(2, "k")...)); err != nil {
		t.Fatal(err)
	}
	br := wire.NewReader(nc, 4096)
	expect := func(id uint64, what string) []byte {
		t.Helper()
		p, err := br.Next()
		if err != nil {
			t.Fatalf("%s did not arrive: %v", what, err)
		}
		gotID, st, body, _ := wire.ParseHeader(p)
		if gotID != id || st != wire.StatusOK {
			t.Fatalf("%s = (id %d, status %d), want (%d, OK)", what, gotID, st, id)
		}
		return body
	}
	if v, _, _ := wire.Uint(expect(2, "the GET's answer, with the PUT's commit wedged")); v != 7 {
		t.Fatalf("GET = %d, want 7", v)
	}
	nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if p, err := br.Next(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read while the PUT's commit is wedged = (%x, %v), want nothing: no ack before the commit returns", p, err)
	}
	<-stub.entered // the PUT is inside the wedged commit
	release()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	expect(1, "the PUT's ack")
}
