package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mets/internal/client"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/obs"
	"mets/internal/sharded"
)

// newTestSharded builds a small in-memory sharded store — the server's engine
// with 4 shards and a small merge trigger.
func newTestSharded(minDynamic int) *ShardedStore {
	return NewShardedStore(sharded.New(sharded.Config{
		Shards: 4,
		Hybrid: hybrid.Config{MergeRatio: 2, MinDynamic: minDynamic, BloomBitsPerKey: 10},
	}))
}

// startServer serves store on a loopback listener and returns the address
// plus a shutdown func that also closes the store.
func startServer(t testing.TB, cfg Config) (addr string, shutdown func()) {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	return ln.Addr().String(), func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve returned: %v", err)
		}
		if err := cfg.Store.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	}
}

// waitGoroutines waits for the goroutine count to drop back near base;
// failing means a connection goroutine leaked.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: base %d, now %d\n%s",
		base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestServerEndToEnd drives every opcode through the real client over TCP.
func TestServerEndToEnd(t *testing.T) {
	base := runtime.NumGoroutine()
	store := newTestSharded(1 << 20)
	addr, shutdown := startServer(t, Config{Store: store, Obs: obs.NewRegistry()})

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	// PUT / GET / DELETE round trips.
	for i := 0; i < 500; i++ {
		if err := c.Put([]byte(fmt.Sprintf("key%04d", i)), uint64(i+1)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	v, ok, err := c.Get([]byte("key0123"))
	if err != nil || !ok || v != 124 {
		t.Fatalf("get = (%d,%v,%v), want (124,true,nil)", v, ok, err)
	}
	if _, ok, _ := c.Get([]byte("missing")); ok {
		t.Fatal("get found a missing key")
	}
	found, err := c.Delete([]byte("key0123"))
	if err != nil || !found {
		t.Fatalf("delete = (%v,%v)", found, err)
	}
	if _, ok, _ := c.Get([]byte("key0123")); ok {
		t.Fatal("deleted key still visible")
	}
	if found, _ := c.Delete([]byte("key0123")); found {
		t.Fatal("double delete reported found")
	}

	// BATCH: statuses line up per op.
	sts, err := c.Batch([]client.BatchOp{
		{Key: []byte("b1"), Value: 11},
		{Delete: true, Key: []byte("never-existed")},
		{Key: []byte("b2"), Value: 22},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(sts) != 3 || sts[0] != 0 || sts[1] == 0 || sts[2] != 0 {
		t.Fatalf("batch statuses = %v", sts)
	}
	if v, ok, _ := c.Get([]byte("b2")); !ok || v != 22 {
		t.Fatalf("batch put not visible: (%d,%v)", v, ok)
	}

	// SCAN pages in order.
	es, err := c.ScanN([]byte("key0400"), 10)
	if err != nil || len(es) != 10 {
		t.Fatalf("scan = %d entries, err %v", len(es), err)
	}
	for i, e := range es {
		if want := fmt.Sprintf("key%04d", 400+i); string(e.Key) != want {
			t.Fatalf("scan[%d] = %q, want %q", i, e.Key, want)
		}
	}

	// STATS parses and reports this connection.
	st := stats(t, c)
	if st.Gauges["server.conns_active"] < 1 || st.Gauges["server.healthy"] != 1 {
		t.Fatalf("stats gauges = %v", st.Gauges)
	}

	c.Close()
	shutdown()
	waitGoroutines(t, base)
}

// TestServerPipelining issues concurrent requests over ONE connection from
// many goroutines; responses must route back to their callers intact.
func TestServerPipelining(t *testing.T) {
	store := newTestSharded(1 << 20)
	addr, shutdown := startServer(t, Config{Store: store})
	defer shutdown()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := []byte(fmt.Sprintf("g%02d-%04d", g, i))
				if err := c.Put(k, uint64(g*perG+i+1)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				v, ok, err := c.Get(k)
				if err != nil || !ok || v != uint64(g*perG+i+1) {
					t.Errorf("get %s = (%d,%v,%v)", k, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerSnapshotScanUnderChurn is the acceptance check for the MVCC
// path end to end: a SNAPSHOT_READ scan begun before merge churn observes
// exactly its captured generation to completion, while a concurrent client
// drives enough writes through the server to force merges in every shard.
func TestServerSnapshotScanUnderChurn(t *testing.T) {
	store := newTestSharded(64) // tiny dynamic stage: constant merge churn
	addr, shutdown := startServer(t, Config{Store: store})
	defer shutdown()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Load the stable range and let it settle into the static stages.
	oracle := make(map[string]uint64)
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("stable%05d", i)
		if err := c.Put([]byte(k), uint64(i+1)); err != nil {
			t.Fatalf("load: %v", err)
		}
		oracle[k] = uint64(i + 1)
	}
	store.Index().Merge()
	store.Index().WaitMerges()

	snap, err := c.SnapshotBegin()
	if err != nil {
		t.Fatalf("snapshot begin: %v", err)
	}

	// Churn writer on its own connection: every put lands in a dynamic
	// stage sized to merge every 64 inserts per shard.
	cw, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial writer: %v", err)
	}
	defer cw.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		// It puts before it looks at stop, so the live scan below has churn
		// keys to find even when the snapshot rounds end first.
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("zchurn%05d", rng.Intn(5000)))
			if err := cw.Put(k, uint64(i+1)); err != nil {
				t.Errorf("churn put: %v", err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// Page through the snapshot repeatedly while the churn runs. Every pass
	// must see exactly the oracle: no churn keys, no lost keys, no stale
	// values — even as merges rebuild the static stages underneath.
	for round := 0; round < 10; round++ {
		seen := 0
		var lo []byte
		for {
			es, err := snap.ScanN(lo, 128)
			if err != nil {
				t.Fatalf("snapshot scan: %v", err)
			}
			if len(es) == 0 {
				break
			}
			for _, e := range es {
				want, ok := oracle[string(e.Key)]
				if !ok {
					t.Fatalf("round %d: snapshot saw uncaptured key %q", round, e.Key)
				}
				if e.Value != want {
					t.Fatalf("round %d: snapshot %q = %d, want %d", round, e.Key, e.Value, want)
				}
				seen++
			}
			last := es[len(es)-1].Key
			lo = append(append([]byte(nil), last...), 0)
		}
		if seen != len(oracle) {
			t.Fatalf("round %d: snapshot scan saw %d keys, want %d", round, seen, len(oracle))
		}
	}
	close(stop)
	wg.Wait()

	if err := snap.End(); err != nil {
		t.Fatalf("snapshot end: %v", err)
	}
	// The live index, by contrast, must see churn keys.
	es, err := c.ScanN([]byte("zchurn"), 5)
	if err != nil || len(es) == 0 {
		t.Fatalf("live scan of churn range: %d entries, err %v", len(es), err)
	}
}

// stubStore is a Store whose commits a test can hold and whose engine it can
// fail.
type stubStore struct {
	mu  sync.Mutex
	m   map[string]uint64
	err error // Err's answer

	// entered is signalled (if empty) on each ApplyBatch entry; release
	// gates its return.
	entered chan struct{}
	release chan struct{}
}

func newStubStore() *stubStore {
	return &stubStore{
		m:       make(map[string]uint64),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
}

func (s *stubStore) Get(key []byte) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[string(key)]
	return v, ok
}

func (s *stubStore) ScanN(start []byte, n int) []index.Entry { return nil }

func (s *stubStore) ApplyBatch(ops []Op) ([]byte, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	s.mu.Lock()
	for _, op := range ops {
		if op.Delete {
			delete(s.m, string(op.Key))
		} else {
			s.m[string(op.Key)] = op.Value
		}
	}
	s.mu.Unlock()
	return make([]byte, len(ops)), nil
}

func (s *stubStore) Snapshot() (Snapshot, error) { return nil, errors.New("stub: no snapshots") }
func (s *stubStore) Close() error                { return nil }

func (s *stubStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *stubStore) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// TestServerUnhealthyRejects pins the sticky-failure path: a failed engine
// refuses writes with ERR and its error, applies none of them, and still
// serves reads.
func TestServerUnhealthyRejects(t *testing.T) {
	stub := newStubStore()
	close(stub.release) // a commit that should not happen would not hang
	stub.m["k"] = 7
	stub.fail(errors.New("journal gone"))
	addr, shutdown := startServer(t, Config{Store: stub})
	defer shutdown()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	err = c.Put([]byte("w"), 1)
	if err == nil || !strings.Contains(err.Error(), "journal gone") {
		t.Fatalf("put on unhealthy engine = %v, want the engine's error", err)
	}
	if _, ok := stub.Get([]byte("w")); ok {
		t.Fatal("a write refused with ERR was applied")
	}
	if v, ok, err := c.Get([]byte("k")); err != nil || !ok || v != 7 {
		t.Fatalf("read on unhealthy engine = (%d,%v,%v)", v, ok, err)
	}
}

// stats fetches the STATS body and parses it as the registry snapshot it is.
func stats(t *testing.T, c *client.Client) obs.Snapshot {
	t.Helper()
	raw, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st obs.Snapshot
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats json: %v (%s)", err, raw)
	}
	return st
}

// TestServerOneVerdict walks an engine healthy → failed and checks that the
// three readers of its one answer, Store.Err, agree at every step: the commit
// of a PUT's burst (acked, or refused with ERR), /healthz (200 ok, 503) and the
// server.healthy gauge of the STATS body. It runs on a caller's registry and
// with Config.Obs nil, where the server keeps its own.
func TestServerOneVerdict(t *testing.T) {
	steps := []struct {
		name    string
		err     error
		putOK   bool
		code    int
		healthy float64
	}{
		{"healthy", nil, true, http.StatusOK, 1},
		{"failed", errors.New("journal gone"), false, http.StatusServiceUnavailable, 0},
	}
	for _, reg := range []*obs.Registry{obs.NewRegistry(), nil} {
		stub := newStubStore()
		close(stub.release) // apply at once
		srv := New(Config{Store: stub, Obs: reg})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		for i, step := range steps {
			stub.fail(step.err)
			if err := c.Put([]byte(fmt.Sprintf("k%d", i)), 1); (err == nil) != step.putOK {
				t.Fatalf("obs=%v %s: PUT answered %v", reg != nil, step.name, err)
			}
			rec := httptest.NewRecorder()
			srv.Healthz(rec, nil)
			if rec.Code != step.code {
				t.Fatalf("obs=%v %s: /healthz = %d %q, want %d", reg != nil, step.name, rec.Code, rec.Body, step.code)
			}
			g := stats(t, c).Gauges
			if g["server.healthy"] != step.healthy || g["server.conns_active"] < 1 {
				t.Fatalf("obs=%v %s: STATS healthy=%v conns_active=%v, want %v/>=1", reg != nil, step.name,
					g["server.healthy"], g["server.conns_active"], step.healthy)
			}
		}
		c.Close()
		srv.Close()
	}
}

// TestServerSoak (short-mode bounded) runs pipelined clients over a
// merge-churning store: mixed gets/puts/deletes/scans/snapshots, every one
// answered without error, then a full shutdown that must leave no goroutines
// behind.
func TestServerSoak(t *testing.T) {
	base := runtime.NumGoroutine()
	store := newTestSharded(64)
	addr, shutdown := startServer(t, Config{Store: store, Obs: obs.NewRegistry()})

	clients := 4
	perClient := 3
	ops := 1500
	if testing.Short() {
		clients, ops = 2, 400
	}

	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("dial %d: %v", ci, err)
		}
		// Several goroutines pipeline on each connection.
		for g := 0; g < perClient; g++ {
			wg.Add(1)
			go func(ci, g int, c *client.Client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(ci*100 + g)))
				for i := 0; i < ops; i++ {
					k := []byte(fmt.Sprintf("soak%02d%06d", ci, rng.Intn(4000)))
					switch rng.Intn(10) {
					case 0, 1, 2, 3, 4:
						if err := c.Put(k, uint64(i+1)); err != nil {
							t.Errorf("soak put: %v", err)
							return
						}
					case 5, 6:
						if _, _, err := c.Get(k); err != nil {
							t.Errorf("soak get: %v", err)
							return
						}
					case 7:
						if _, err := c.Delete(k); err != nil {
							t.Errorf("soak delete: %v", err)
							return
						}
					case 8:
						if _, err := c.ScanN(k, 32); err != nil {
							t.Errorf("soak scan: %v", err)
							return
						}
					case 9:
						sn, err := c.SnapshotBegin()
						if err != nil {
							t.Errorf("soak snap begin: %v", err)
							return
						}
						if _, err := sn.ScanN(k, 16); err != nil {
							t.Errorf("soak snap scan: %v", err)
							return
						}
						if err := sn.End(); err != nil {
							t.Errorf("soak snap end: %v", err)
							return
						}
					}
				}
			}(ci, g, c)
		}
		defer c.Close()
	}
	wg.Wait()

	shutdown()
	waitGoroutines(t, base)
}

// TestServerCloseWithIdleConns verifies Close tears down connections that
// are sitting idle in ReadFrame (not mid-request).
func TestServerCloseWithIdleConns(t *testing.T) {
	base := runtime.NumGoroutine()
	store := newTestSharded(1 << 20)
	addr, shutdown := startServer(t, Config{Store: store})

	var cs []*client.Client
	for i := 0; i < 5; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if err := c.Put([]byte("x"), 1); err != nil {
			t.Fatalf("put: %v", err)
		}
		cs = append(cs, c)
	}
	shutdown() // closes server side while clients are idle
	for _, c := range cs {
		// The connection is dead; calls must fail, not hang.
		if err := c.Put([]byte("y"), 2); err == nil {
			t.Fatal("put succeeded on a closed server")
		}
		c.Close()
	}
	waitGoroutines(t, base)
}
