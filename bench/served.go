package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mets/internal/client"
	"mets/internal/hybrid"
	"mets/internal/obs"
	"mets/internal/server"
	"mets/internal/sharded"
	"mets/internal/ycsb"
)

// The served workloads drive the real cmd/mets-server binary, built from the
// tree under test, as a child process on a loopback port. Flags are the
// server's defaults, so the flush policy is one journal sync per coalesced
// batch on both sides of any comparison.

const (
	servedClients = 2
	servedScanLen = 20
	servedShards  = 8 // the server's -shards default
)

// ---- child process ----

type child struct {
	cmd    *exec.Cmd
	addr   string
	debug  string
	output bytes.Buffer
	done   chan struct{} // closed when Wait has returned
}

// serverBin builds cmd/mets-server once per process.
func (e *env) serverBin() (string, error) {
	e.buildOnce.Do(func() {
		bin := filepath.Join(e.work, "mets-server")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/mets-server")
		cmd.Dir = e.root
		if out, err := cmd.CombinedOutput(); err != nil {
			e.buildErr = fmt.Errorf("build mets-server: %v\n%s", err, out)
			return
		}
		e.bin = bin
	})
	return e.bin, e.buildErr
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer execs the server and returns once it accepts connections. The
// probed port can be taken between probe and bind, so a failed start is
// retried on fresh ports.
func startServer(e *env, dir string) (*child, error) {
	bin, err := e.serverBin()
	if err != nil {
		return nil, err
	}
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		c := &child{done: make(chan struct{})}
		if c.addr, err = freeAddr(); err != nil {
			return nil, err
		}
		if c.debug, err = freeAddr(); err != nil {
			return nil, err
		}
		args := []string{"-addr", c.addr, "-debug-addr", c.debug, "-engine", "sharded"}
		if dir != "" {
			args = append(args, "-dir", dir)
		}
		c.cmd = exec.Command(bin, args...)
		c.cmd.Stdout = &c.output
		c.cmd.Stderr = &c.output
		if err := c.cmd.Start(); err != nil {
			return nil, err
		}
		go func() {
			_ = c.cmd.Wait() // exit status is not news: every child is stopped by signal
			close(c.done)
		}()
		e.track(c)
		if last = c.waitReady(20 * time.Second); last == nil {
			return c, nil
		}
		c.kill()
	}
	return nil, last
}

func (c *child) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("mets-server exited during start-up:\n%s", c.output.String())
		default:
		}
		if conn, err := net.DialTimeout("tcp", c.addr, 200*time.Millisecond); err == nil {
			conn.Close()
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("mets-server did not accept on %s within %v", c.addr, timeout)
}

// kill is SIGKILL: the crash the durable workload recovers from, and the
// last resort of stop. It returns once the process has been reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.done
}

// stop asks for a clean shutdown and falls back to kill.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.kill()
	}
}

// scrape reads the child's Prometheus endpoint into name -> value, skipping
// labelled (quantile) series.
func (c *child) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + c.debug + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// shardSum adds one per-shard series over all shards.
func shardSum(m map[string]float64, suffix string) float64 {
	var sum float64
	for name, v := range m {
		if strings.HasPrefix(name, "mets_shard") && strings.HasSuffix(name, "_"+suffix) {
			sum += v
		}
	}
	return sum
}

// procStatus reads one kB field of /proc/<pid>/status, in bytes.
func (c *child) procStatus(field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb * 1024
		}
	}
	return 0
}

// ---- shared by both served workloads ----

type served struct {
	e    *env
	srv  *child
	dir  string // durability directory; "" in memory
	keys [][]byte
	// loaded is how many keys were preloaded: keys[:loaded], which are in
	// key order, through ycsb.LoadServer, which gives key i valueOf(i).
	loaded int
	conns  []*client.Client

	base, latest map[string]float64 // /metrics after warm-up and after the last round

	// Traced run only: an in-process copy of the server's engine, loaded
	// the same way, for the calls a GET makes below the socket.
	mirror *server.ShardedStore
}

func (s *served) dial() error {
	for len(s.conns) < servedClients {
		c, err := client.Dial(s.srv.addr)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
	}
	return nil
}

func (s *served) hangUp() {
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

func (s *served) close() {
	s.hangUp()
	s.srv.stop()
	if s.mirror != nil {
		s.mirror.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *served) get(c int, o *op) bool {
	v, ok, err := s.conns[c].Get(o.key)
	return err == nil && ok && v == o.val
}

// snapshot keeps the first scrape as the baseline and the newest as latest.
func (s *served) snapshot() error {
	m, err := s.srv.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	if s.base == nil {
		s.base = m
	}
	s.latest = m
	return nil
}

func (s *served) delta(name string) float64 { return s.latest[name] - s.base[name] }

func (s *served) shardDelta(suffix string) float64 {
	return shardSum(s.latest, suffix) - shardSum(s.base, suffix)
}

// engineConfig is cmd/mets-server's buildStore configuration for the sharded
// engine: what the child runs, for the in-process copies the benchmark makes.
func engineConfig() sharded.Config {
	hc := hybrid.DefaultConfig()
	hc.EpochReads = true
	hc.BackgroundMerge = true
	return sharded.Config{Shards: servedShards, Hybrid: hc, Obs: obs.NewRegistry()}
}

// enableTrace builds the mirror engine and loads it through the server's
// commit path.
func (s *served) enableTrace() error {
	cfg := engineConfig()
	if s.dir != "" {
		cfg.Dir = filepath.Join(s.e.work, "mirror")
		if err := os.RemoveAll(cfg.Dir); err != nil {
			return err
		}
	}
	s.mirror = server.NewShardedStore(sharded.NewBTree(cfg))
	const batch = 512 // ycsb.LoadServer's batch size
	ops := make([]server.Op, 0, batch)
	for i, k := range s.keys[:s.loaded] {
		ops = append(ops, server.Op{Key: k, Value: valueOf(i)})
		if len(ops) == batch {
			if _, err := s.mirror.ApplyBatch(ops); err != nil {
				return err
			}
			ops = ops[:0]
		}
	}
	_, err := s.mirror.ApplyBatch(ops)
	return err
}

// layers replays a GET's work on either side of the socket; what is left of
// the round trip is TCP, wake-ups and hand-offs between goroutines.
func (s *served) layers(_ int, o *op, t *opTrace) {
	t.child("wire.codec_ns", func() { t.keep(wireGetRoundTrip(t.id, o.key, o.val)) })
	t.child("server.store_get_ns", func() {
		v, _ := s.mirror.Get(o.key)
		t.keep(int(v))
	})
}

func (s *served) layerMetrics(out metrics) {
	reqs := s.delta("mets_server_req_get") + s.delta("mets_server_req_put") + s.delta("mets_server_req_scan")
	if reqs > 0 {
		out.set("server.shed_share", (s.delta("mets_server_shed_backlog")+s.delta("mets_server_shed_queue_full"))/reqs)
	}
	if b := s.delta("mets_server_commit_batches"); b > 0 {
		out.set("server.ops_per_commit", s.delta("mets_server_committed_ops")/b)
	}
	out.set("server.peak_rss_bytes", s.srv.procStatus("VmHWM"))
	out.set("hybrid.merge_count", s.shardDelta("merges"))
	if gets := s.shardDelta("get"); gets > 0 {
		out.set("bloom.skip_share", s.shardDelta("bloom_skip")/gets)
	}
	var perShard []float64
	for i := 0; i < servedShards; i++ {
		var ops float64
		for _, n := range []string{"get", "insert", "update", "delete", "scan"} {
			name := fmt.Sprintf("mets_shard%d_%s", i, n)
			ops += s.latest[name] - s.base[name]
		}
		perShard = append(perShard, ops)
	}
	out.set("sharded.shard_skew", skew(perShard))

	idx := s.mirror.Index()
	idx.WaitMerges()
	out.set("server.index_bytes", float64(idx.MemoryUsage()))
	probeApplyBatch(out, s.mirror, s.keys)
	probeWire(out, s.keys, servedScanLen)
	probeSharded(out, idx, s.keys)
	sample := append([][]byte(nil), probeSample(s.keys)...)
	sort.Slice(sample, func(i, j int) bool { return bytes.Compare(sample[i], sample[j]) < 0 })
	probeEngine(out, sample)
}

// engineBitsPerKey is the memory row of a served workload: index bytes x 8
// per key of the server's engine holding the preloaded keys, fully merged.
// The server exports no memory figure for this engine and its resident set
// moves by a few percent from run to run, so the figure is taken from an
// in-process copy, where it is exact; server.peak_rss_bytes has the process.
func (s *served) engineBitsPerKey() (float64, error) {
	idx := sharded.NewBTree(engineConfig())
	if err := idx.BulkLoad(allEntries(s.keys[:s.loaded])); err != nil {
		return 0, err
	}
	idx.WaitMerges()
	return float64(idx.MemoryUsage()) * 8 / float64(idx.Len()), nil
}

// ---- served-read ----

type servedRead struct {
	served
	ops [][]op
}

func setupServedRead(e *env) (instance, error) {
	ks := sortedInts(e.n(500_000, 5000), e.seed)
	srv, err := startServer(e, "")
	if err != nil {
		return nil, err
	}
	w := &servedRead{served: served{e: e, srv: srv, keys: ks, loaded: len(ks)}}
	if err := ycsb.LoadServer(srv.addr, ks); err != nil {
		w.close()
		return nil, err
	}
	if err := w.dial(); err != nil {
		w.close()
		return nil, err
	}
	// 95% Zipfian GET, 5% 20-entry SCAN; the same streams every round.
	perClient := e.n(20_000, 1200)
	for c := 0; c < servedClients; c++ {
		rng := rngFor(e.seed, int64(400+c))
		ops := make([]op, perClient)
		for i, ki := range zipfian(len(ks), perClient, e.seed*37+int64(c)) {
			ops[i] = op{kind: opGet, idx: ki, key: ks[ki], val: valueOf(ki)}
			if rng.Intn(100) < 5 {
				ops[i].kind = opScan
			}
		}
		w.ops = append(w.ops, ops)
	}
	return w, nil
}

func (w *servedRead) streams(int) ([][]op, error) { return w.ops, nil }
func (w *servedRead) endRound(int) error          { return w.snapshot() }

func (w *servedRead) do(c int, o *op) bool {
	if o.kind == opScan {
		got, err := w.conns[c].ScanN(o.key, servedScanLen)
		return err == nil && checkRun(w.keys, o.idx, servedScanLen, got)
	}
	return w.get(c, o)
}

func (w *servedRead) finish(out metrics, traced bool) (int, int, error) {
	if traced {
		w.layerMetrics(out)
		return 0, 0, nil
	}
	bits, err := w.engineBitsPerKey()
	out.set("bits_per_key", bits)
	return 0, 0, err
}

// ---- served-durable ----

type servedDurable struct {
	served
	owned  [][]int          // per client: the preloaded keys it reads and updates
	pool   [][]int          // per client: keys it has yet to insert
	model  []map[int]uint64 // per client: current value of every key it wrote
	perRnd int
	seq    uint64

	roundPuts int // PUTs in the round being run
	puts      int // acked PUTs since the baseline scrape
	allPuts   int // acked PUTs since the preload, warm-up included
}

func setupServedDurable(e *env) (instance, error) {
	loaded := e.n(200_000, 2000)
	perRound := e.n(1500, 1500)
	// Enough fresh keys for far more rounds than any run reaches; a client
	// that did run out would turn its inserts into updates.
	fresh := 200 * perRound / 4
	// The key table starts with the preload — a random subset, in key order,
	// so the load fills one shard after the other and the server never sheds
	// it for merge backlog — followed by the clients' pools of fresh keys in
	// random order. No op of this workload depends on the table's order.
	sorted := sortedInts(loaded+servedClients*fresh, e.seed)
	perm := rngFor(e.seed, 500).Perm(len(sorted))
	sort.Ints(perm[:loaded])
	ks := make([][]byte, len(sorted))
	for j, i := range perm {
		ks[j] = sorted[i]
	}
	dir := filepath.Join(e.work, "durable")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := startServer(e, dir)
	if err != nil {
		return nil, err
	}
	w := &servedDurable{served: served{e: e, srv: srv, dir: dir, keys: ks, loaded: loaded}, perRnd: perRound}
	for c := 0; c < servedClients; c++ {
		w.model = append(w.model, map[int]uint64{})
		var own, pool []int
		for i := c; i < loaded; i += servedClients {
			own = append(own, i)
		}
		for i := loaded + c*fresh; i < loaded+(c+1)*fresh; i++ {
			pool = append(pool, i)
		}
		w.owned = append(w.owned, own)
		w.pool = append(w.pool, pool)
	}
	if err := ycsb.LoadServer(srv.addr, ks[:loaded]); err != nil {
		w.close()
		return nil, err
	}
	if err := w.dial(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// streams generates round r: 50% PUT (half fresh inserts, half Zipfian
// updates), 50% Zipfian GET. A client touches only its own keys, so the value
// a read must return is known when the read is generated.
func (w *servedDurable) streams(r int) ([][]op, error) {
	out := make([][]op, servedClients)
	w.roundPuts = 0
	for c := range out {
		rng := rngFor(w.e.seed, int64(510+c)+int64(r)*1000)
		own := w.owned[c]
		zs := zipfian(len(own), w.perRnd, w.e.seed*41+int64(c)+int64(r)*1000)
		ops := make([]op, w.perRnd)
		for i, z := range zs {
			ki := own[z]
			cur, written := w.model[c][ki]
			if !written {
				cur = valueOf(ki)
			}
			switch p := rng.Intn(4); {
			case p == 0 && len(w.pool[c]) > 0:
				ki, w.pool[c] = w.pool[c][0], w.pool[c][1:]
				ops[i] = op{kind: opPut, idx: ki, key: w.keys[ki], val: valueOf(ki)}
				w.model[c][ki] = valueOf(ki)
				w.roundPuts++
			case p <= 1:
				w.seq++
				ops[i] = op{kind: opPut, idx: ki, key: w.keys[ki], val: 1<<40 + w.seq}
				w.model[c][ki] = ops[i].val
				w.roundPuts++
			default:
				ops[i] = op{kind: opGet, idx: ki, key: w.keys[ki], val: cur}
			}
		}
		out[c] = ops
	}
	return out, nil
}

func (w *servedDurable) do(c int, o *op) bool {
	if o.kind == opPut {
		return w.conns[c].Put(o.key, o.val) == nil
	}
	return w.get(c, o)
}

func (w *servedDurable) endRound(r int) error {
	w.allPuts += w.roundPuts
	if r > 0 { // the warm-up's PUTs precede the baseline scrape
		w.puts += w.roundPuts
	}
	return w.snapshot()
}

// finish crashes the server three times and checks that nothing acked was
// lost: every key any client wrote must read back with its last acked value,
// and every preloaded key nobody touched with its loaded value.
func (w *servedDurable) finish(out metrics, traced bool) (int, int, error) {
	if !traced {
		bits, err := w.engineBitsPerKey()
		if err != nil {
			return 0, 0, err
		}
		out.set("bits_per_key", bits)
	} else {
		w.layerMetrics(out)
		if w.puts > 0 {
			out.set("wal.fsyncs_per_put", w.shardDelta("wal_fsyncs")/float64(w.puts))
			out.set("wal.bytes_per_put", w.shardDelta("wal_bytes")/float64(w.puts))
		}
	}
	want := map[int]uint64{}
	for i := 0; i < w.loaded; i++ {
		want[i] = valueOf(i)
	}
	for _, m := range w.model {
		for ki, v := range m {
			want[ki] = v
		}
	}
	const probe = 0 // the key the first GET after each restart asks for
	var reopen []float64
	for crash := 0; crash < 3; crash++ {
		w.hangUp()
		w.srv.kill()
		t0 := time.Now()
		srv, err := startServer(w.e, w.dir)
		if err != nil {
			return 0, 0, fmt.Errorf("restart %d: %w", crash+1, err)
		}
		w.srv = srv
		if err := w.dial(); err != nil {
			return 0, 0, err
		}
		if v, ok, err := w.conns[0].Get(w.keys[probe]); err != nil || !ok || v != want[probe] {
			return 0, 0, fmt.Errorf("restart %d: first GET wrong (value %d found %v err %v)", crash+1, v, ok, err)
		}
		reopen = append(reopen, time.Since(t0).Seconds())
	}
	lost := w.verify(want)

	disk, err := dirBytes(w.dir)
	if err != nil {
		return 0, 0, err
	}
	if traced {
		out.set("reopen_s", median(reopen))
		out.set("disk_bytes_per_user_byte", float64(disk)/float64(w.writtenBytes()))
		w.hangUp()
		w.srv.stop()
		if err := probeVFS(out, w.e.work); err != nil {
			return 0, 0, err
		}
		if err := probeWAL(out, w.e.work, w.dir); err != nil {
			return 0, 0, err
		}
	}
	return len(want), lost, nil
}

// writtenBytes is key+8 for every acked write: the preload plus every PUT of
// every round, warm-up included (all rounds have the same PUT count).
func (w *servedDurable) writtenBytes() int64 {
	return int64(w.loaded+w.allPuts) * int64(len(w.keys[0])+8)
}

// verify reads every expected key back over both connections, eight
// pipelined readers each, and returns how many came back wrong.
func (w *servedDurable) verify(want map[int]uint64) int {
	idx := make([]int, 0, len(want))
	for ki := range want {
		idx = append(idx, ki)
	}
	const readers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	lost := 0
	for g := 0; g < readers*servedClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bad := 0
			for j := g; j < len(idx); j += readers * servedClients {
				v, ok, err := w.conns[g%servedClients].Get(w.keys[idx[j]])
				if err != nil || !ok || v != want[idx[j]] {
					bad++
				}
			}
			mu.Lock()
			lost += bad
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return lost
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
