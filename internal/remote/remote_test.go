package remote

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dooc/internal/compress"
	"dooc/internal/core"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// startServer spins up a loopback storage server over a fresh store.
func startServer(t *testing.T, scratch string) (*Server, *Client) {
	t.Helper()
	cfg := storage.Config{MemoryBudget: 1 << 20, Seed: 1}
	if scratch != "" {
		cfg.ScratchDir = scratch
	}
	st, err := storage.NewLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		st.Close()
	})
	return srv, cl
}

func TestRemoteCreateWriteRead(t *testing.T) {
	srv, cl := startServer(t, "")
	if err := cl.Create("arr", 64, 32); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("xy"), 16) // 32 bytes
	if err := cl.WriteInterval("arr", 0, 32, payload); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteInterval("arr", 32, 64, payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadInterval("arr", 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[2:10]) {
		t.Fatalf("read %q", got)
	}
	all, err := cl.ReadAll("arr")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 64 {
		t.Fatalf("ReadAll %d bytes", len(all))
	}
	if srv.Requests() == 0 || srv.BytesOut() == 0 || srv.BytesIn() == 0 {
		t.Fatalf("server counters empty: %d req %d out %d in", srv.Requests(), srv.BytesOut(), srv.BytesIn())
	}
}

func TestRemoteImmutability(t *testing.T) {
	_, cl := startServer(t, "")
	if err := cl.Create("imm", 16, 16); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteInterval("imm", 0, 8, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteInterval("imm", 4, 12, make([]byte, 8)); err == nil {
		t.Fatal("overlapping remote write accepted")
	}
	if err := cl.WriteInterval("imm", 8, 16, make([]byte, 4)); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestRemoteReadBlocksUntilWritten(t *testing.T) {
	// Two clients: one reads an unwritten interval (blocking server-side),
	// the other writes it; the read must then complete. This proves the
	// immutable-array discipline crosses the network, and that a blocked
	// read does not stall the connection.
	srv, reader := startServer(t, "")
	writer, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := reader.Create("late", 8, 8); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		data, err := reader.ReadInterval("late", 0, 8)
		if err != nil {
			got <- nil
			return
		}
		got <- data
	}()
	select {
	case <-got:
		t.Fatal("read completed before write")
	case <-time.After(50 * time.Millisecond):
	}
	// The reader's connection must still serve other requests while the
	// read is parked.
	if _, err := reader.Info("late"); err != nil {
		t.Fatalf("connection stalled by blocked read: %v", err)
	}
	if err := writer.WriteInterval("late", 0, 8, []byte("ARRIVED!")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if string(data) != "ARRIVED!" {
			t.Fatalf("read %q", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read never unblocked")
	}
}

func TestRemoteServesScannedScratch(t *testing.T) {
	// The I/O-node pattern: the server's scratch directory already holds a
	// staged CRS block; a remote compute node fetches it and multiplies.
	dir := t.TempDir()
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: 50, Cols: 50, D: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sparse.WriteCRS(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "A.arr"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, dir)
	raw, err := cl.ReadAll("A")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sparse.ReadCRS(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 50)
	x[0], x[49] = 1, -1
	want := make([]float64, 50)
	sparse.MulVec(m, x, want)
	y := make([]float64, 50)
	sparse.MulVec(got, x, y)
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("SpMV over network-fetched block differs at %d", i)
		}
	}
}

func TestRemoteConcurrentClients(t *testing.T) {
	srv, first := startServer(t, "")
	_ = first
	const clients, arrays = 6, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			for a := 0; a < arrays; a++ {
				name := fmt.Sprintf("c%d-a%d", c, a)
				size := int64(64 + rng.Intn(256))
				if err := cl.Create(name, size, size); err != nil {
					errs <- err
					return
				}
				payload := make([]byte, size)
				rng.Read(payload)
				if err := cl.WriteInterval(name, 0, size, payload); err != nil {
					errs <- err
					return
				}
				got, err := cl.ReadAll(name)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("%s: payload mismatch", name)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, cl := startServer(t, "")
	if _, err := cl.ReadInterval("ghost", 0, 8); !errors.Is(err, storage.ErrNoArray) {
		t.Errorf("read of unknown array: %v", err)
	}
	if _, err := cl.Info("ghost"); !errors.Is(err, storage.ErrNoArray) {
		t.Errorf("info of unknown array: %v", err)
	}
	if err := cl.Delete("ghost"); !errors.Is(err, storage.ErrNoArray) {
		t.Errorf("delete of unknown array: %v", err)
	}
	if err := cl.Create("", 1, 1); err == nil {
		t.Error("invalid create succeeded")
	}
	// Flush without scratch errors.
	if err := cl.Create("f", 8, 8); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteInterval("f", 0, 8, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush("f"); err == nil {
		t.Error("flush without scratch succeeded")
	}
}

func TestRemoteClientCloseFailsInflight(t *testing.T) {
	_, cl := startServer(t, "")
	if err := cl.Create("never", 8, 8); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.ReadInterval("never", 0, 8) // blocks: never written
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cl.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight read succeeded after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight read not failed by close")
	}
}

func TestRemoteOutOfCoreSpMVEndToEnd(t *testing.T) {
	// Full compute-node/I/O-node round trip: blocks staged on the server's
	// scratch, fetched over TCP by a "compute process" that runs iterated
	// SpMV locally and checks against the in-core reference.
	const dim, k, iters = 60, 3, 3
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := core.SpMVConfig{Dim: dim, K: k, Iters: 1, Nodes: 1}
	if err := core.StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, filepath.Join(root, "node0"))

	p, err := sparse.NewGridPartition(dim, k)
	if err != nil {
		t.Fatal(err)
	}
	// Fetch each block once, cache decoded client-side (the compute node's
	// local memory), iterate.
	blocks := make([][]*sparse.CSR, k)
	for u := 0; u < k; u++ {
		blocks[u] = make([]*sparse.CSR, k)
		for v := 0; v < k; v++ {
			raw, err := cl.ReadAll(fmt.Sprintf("A_%03d_%03d", u, v))
			if err != nil {
				t.Fatal(err)
			}
			b, err := sparse.ReadCRS(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			blocks[u][v] = b
		}
	}
	rng := rand.New(rand.NewSource(10))
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := append([]float64(nil), x...)
	tmp := make([]float64, dim)
	for it := 0; it < iters; it++ {
		next := make([]float64, dim)
		for u := 0; u < k; u++ {
			yu := next[p.Start(u):p.Start(u+1)]
			for v := 0; v < k; v++ {
				sparse.MulVecAdd(blocks[u][v], x[p.Start(v):p.Start(v+1)], yu)
			}
		}
		x = next
		sparse.MulVec(m, ref, tmp)
		ref, tmp = tmp, ref
	}
	for i := range ref {
		if x[i] != ref[i] {
			t.Fatalf("network-staged SpMV differs at %d", i)
		}
	}
}

// BenchmarkRemoteRead measures interval-read throughput over loopback TCP.
func BenchmarkRemoteRead(b *testing.B) {
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 26, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv, err := Listen(st, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const size = 1 << 20
	if err := cl.Create("big", size, size); err != nil {
		b.Fatal(err)
	}
	if err := cl.WriteInterval("big", 0, size, make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.ReadInterval("big", 0, size); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServerClosesConnectionWithoutHello: a peer that opens with a gob
// request instead of the v1 hello is closed without a reply.
func TestServerClosesConnectionWithoutHello(t *testing.T) {
	srv, _ := startServer(t, "")
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var msg bytes.Buffer
	if err := gob.NewEncoder(&msg).Encode(&request{ID: 1, Op: opStats}); err != nil {
		t.Fatal(err)
	}
	// A write error already means the server hung up; the read below
	// confirms it either way.
	raw.Write(msg.Bytes())
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := raw.Read(make([]byte, 64))
	var ne net.Error
	if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("server answered a hello-less connection: read %d bytes, err %v", n, err)
	}
}

// TestDialFailsOnNonHelloReply: a listener that answers the hello with
// anything but a v1 hello fails the dial, with or without a codec, and the
// client never redials.
func TestDialFailsOnNonHelloReply(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"codec", Options{Codec: compress.Default()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var accepted []net.Conn
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					accepted = append(accepted, c)
					c.Write([]byte("HTTP/1.1"))
				}
			}()
			cl, err := DialOptions(ln.Addr().String(), tc.opts)
			if err == nil {
				cl.Close()
			}
			ln.Close()
			<-done
			for _, c := range accepted {
				c.Close()
			}
			if err == nil {
				t.Fatal("dial succeeded against a non-hello reply")
			}
			if len(accepted) != 1 {
				t.Fatalf("listener accepted %d connections, want 1 (no redial)", len(accepted))
			}
		})
	}
}
