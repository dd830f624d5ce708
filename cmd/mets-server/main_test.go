package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mets/internal/client"
	"mets/internal/keys"
	"mets/internal/ycsb"
)

// freeAddr asks the kernel for an unused loopback port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// buildServer compiles the binary into a temporary directory.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mets-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestServerSmoke drives the real binary end to end over loopback TCP: build
// it, start it with the debug endpoint and the arguments the gated
// benchmark's served workloads pass, wait on /healthz, load a key set, check
// every answer of a mixed GET/PUT/SCAN/BATCH stream against an oracle,
// require server- and shard-namespaced samples on /metrics (registry →
// renderer → HTTP; the exposition grammar is pinned by internal/obs), then
// SIGTERM and require the "clean shutdown" line and exit status 0 inside a
// timeout. Clean shutdown is the goroutine-leak check: Close waits for every
// connection's goroutine, so a leaked one hangs it.
func TestServerSmoke(t *testing.T) {
	bin := buildServer(t)
	addr, debug := freeAddr(t), freeAddr(t)
	var output bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr, "-debug-addr", debug, "-engine", "sharded")
	cmd.Stdout, cmd.Stderr = &output, &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill() // no-op after a clean exit

	httpGet := func(path string) (string, error) {
		resp, err := http.Get("http://" + debug + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: %s", path, resp.Status)
		}
		return string(body), err
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := httpGet("/healthz"); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("server never became healthy: %v\n%s", err, output.String())
		}
	}

	// The key set stays fixed (writes only change values), so a scan's
	// expected answer is a slice of the sorted keys.
	ks := keys.Dedup(keys.Emails(4000, 1))
	if err := ycsb.LoadServer(addr, ks); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(ks))
	for i := range want {
		want[i] = uint64(i + 1)
	}
	var conns [2]*client.Client
	for i := range conns {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	gen := ycsb.NewGenerator(len(ks), false, 7)
	ops := append(gen.Ops(ycsb.WorkloadA, 3000), gen.Ops(ycsb.WorkloadE, 1000)...)
	for n, op := range ops {
		// Alternating connections: a write acked on one must be visible to
		// the next read on the other.
		c, i := conns[n%2], op.KeyIndex
		switch op.Kind {
		case ycsb.OpRead:
			v, ok, err := c.Get(ks[i])
			if err != nil || !ok || v != want[i] {
				t.Fatalf("op %d: Get(%q) = (%d, %v, %v), want %d", n, ks[i], v, ok, err, want[i])
			}
		case ycsb.OpUpdate:
			if err := c.Put(ks[i], uint64(n)<<20); err != nil {
				t.Fatalf("op %d: %v", n, err)
			}
			want[i] = uint64(n) << 20
		case ycsb.OpInsert: // as a batch over a run of existing keys
			var batch []client.BatchOp
			for j := i; j < min(i+4, len(ks)); j++ {
				batch = append(batch, client.BatchOp{Key: ks[j], Value: uint64(n)<<20 + uint64(j)})
			}
			if sts, err := c.Batch(batch); err != nil || !bytes.Equal(sts, make([]byte, len(batch))) {
				t.Fatalf("op %d: batch = (%v, %v)", n, sts, err)
			}
			for j := range batch {
				want[i+j] = batch[j].Value
			}
		case ycsb.OpScan:
			es, err := c.ScanN(ks[i], op.ScanLen)
			if err != nil || len(es) != min(op.ScanLen, len(ks)-i) {
				t.Fatalf("op %d: ScanN(%q, %d) returned %d entries, err %v", n, ks[i], op.ScanLen, len(es), err)
			}
			for j, e := range es {
				if !bytes.Equal(e.Key, ks[i+j]) || e.Value != want[i+j] {
					t.Fatalf("op %d: scan[%d] = (%q, %d), want (%q, %d)", n, j, e.Key, e.Value, ks[i+j], want[i+j])
				}
			}
		}
	}

	metrics, err := httpGet("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"mets_server_", "mets_shard"} {
		if !strings.Contains("\n"+metrics, "\n"+prefix) {
			t.Errorf("/metrics has no %s sample", prefix)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil || !strings.Contains(output.String(), "\nclean shutdown\n") {
			t.Fatalf("exit: %v; output:\n%s", err, output.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("no exit within 20s of SIGTERM (a leaked goroutine hangs Close); output:\n%s", output.String())
	}
}

// TestServerRejectsOtherEngines pins -engine: sharded is the one engine, and
// any other value exits non-zero, naming it, before the server listens.
func TestServerRejectsOtherEngines(t *testing.T) {
	bin := buildServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second) // a server that starts anyway is killed
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-addr", freeAddr(t), "-engine", "lsm").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-engine lsm: err = %v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown engine "lsm"`) || !strings.Contains(string(out), "sharded") {
		t.Fatalf("-engine lsm: output does not name the one engine:\n%s", out)
	}
}
