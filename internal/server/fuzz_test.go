package server

import (
	"io"
	"net"
	"testing"
	"time"

	"mets/internal/hybrid"
	"mets/internal/sharded"
	"mets/internal/wire"
)

// FuzzServerFrame throws arbitrary bytes at a live connection: malformed,
// truncated, and oversized frames must never panic the server, desync its
// response stream into garbage, or leak the connection's goroutine (the
// deferred Close hangs if it is stuck).
func FuzzServerFrame(f *testing.F) {
	// Well-formed seeds, then deliberately broken ones.
	put := wire.NewFrame(1, wire.OpPut)
	put = wire.AppendBytes(put, []byte("key"))
	put = wire.AppendUint(put, 42)
	putFrame, _ := wire.Finish(put)
	f.Add(putFrame)
	get := wire.NewFrame(2, wire.OpGet)
	get = wire.AppendBytes(get, []byte("key"))
	getFrame, _ := wire.Finish(get)
	f.Add(getFrame)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                            // undersized declared length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})       // oversized declared length
	f.Add([]byte{9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7}) // header-only SNAPSHOT_READ, empty body
	f.Add(append(getFrame[:len(getFrame)-2], 0xff))      // truncated body
	snap := wire.NewFrame(3, wire.OpSnapRead)
	snap = wire.AppendUint(snap, 99)
	snapFrame, _ := wire.Finish(snap)
	f.Add(snapFrame) // SNAPSHOT_READ with missing sub-op / unknown id

	store := NewShardedStore(sharded.New(sharded.Config{
		Shards: 2,
		Hybrid: hybrid.Config{MergeRatio: 2, MinDynamic: 1 << 20, BloomBitsPerKey: 10},
	}))
	store.Index().Insert([]byte("key"), 7)
	s := newServer(f, Config{Store: store})
	f.Cleanup(func() {
		s.Close()
		store.Close()
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		cliEnd, srvEnd := net.Pipe()
		s.startConn(srvEnd)

		// Drain whatever the server answers so its writes never wedge on
		// the unbuffered pipe.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			io.Copy(io.Discard, cliEnd)
		}()

		cliEnd.SetWriteDeadline(time.Now().Add(2 * time.Second))
		cliEnd.Write(data) // short/failed writes are fine: that IS a truncation
		// Half-close is not a thing on net.Pipe; a full close ends the
		// server's read loop mid-frame, which is the truncation case.
		cliEnd.Close()
		<-drained
	})
}
