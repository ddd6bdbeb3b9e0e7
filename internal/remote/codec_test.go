package remote

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"dooc/internal/compress"
	"dooc/internal/obs"
	"dooc/internal/storage"
)

// wirePayload builds n bytes of quantized float64 data — the shape of a
// solver vector, and compressible by the default codec.
func wirePayload(n int) []byte {
	out := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := math.Round((1+1e-3*math.Sin(float64(i)/300))*4096) / 4096
		binary.LittleEndian.PutUint64(out[i:], math.Float64bits(v))
	}
	return out
}

// TestParseHello covers the hello validator: a frame of the wrong length,
// marker or magic is malformed, and a version other than protoVersion is
// refused; only a well-formed current hello yields its role bits and codec.
func TestParseHello(t *testing.T) {
	withVersion := func(v byte) []byte {
		b := helloFrame(0x05, 0x02)
		b[5] = v
		return b
	}
	badMagic := helloFrame(0x05, 0x02)
	badMagic[3] = 'X'
	badMarker := helloFrame(0x05, 0x02)
	badMarker[0] = 0x01
	cases := []struct {
		name string
		b    []byte
		ok   bool
	}{
		{"empty", nil, false},
		{"short", helloFrame(0x05, 0x02)[:helloLen-1], false},
		{"long", append(helloFrame(0x05, 0x02), 0), false},
		{"bad-marker", badMarker, false},
		{"bad-magic", badMagic, false},
		{"v0", withVersion(0), false},
		{"v2", withVersion(2), false},
		{"v255", withVersion(255), false},
		{"v1", withVersion(1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			roles, pref, err := parseHello(tc.b)
			if !tc.ok {
				if err == nil {
					t.Fatalf("parseHello(% x) accepted, want an error", tc.b)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseHello(% x): %v", tc.b, err)
			}
			if roles != 0x05 || pref != 0x02 {
				t.Fatalf("roles=%#x pref=%#x, want 0x5/0x2", roles, pref)
			}
		})
	}
}

// startCodecServer wires a codec-configured server and client over a local
// store, with a shared registry when reg is non-nil.
func startCodecServer(t *testing.T, reg *obs.Registry, srvOpts ServerOptions, clOpts Options) (*Server, *Client) {
	t.Helper()
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srvOpts.Obs = reg
	clOpts.Obs = reg
	srv, err := ListenOptions(st, "127.0.0.1:0", srvOpts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialOptions(srv.Addr(), clOpts)
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

// TestWireCompressionRoundTrip prefers the default codec and moves a
// compressible payload both ways: the data must round-trip exactly while the
// wire carries fewer payload bytes than the logical interval.
func TestWireCompressionRoundTrip(t *testing.T) {
	srv, cl := startCodecServer(t, nil, ServerOptions{}, Options{Codec: compress.Default()})

	payload := wirePayload(64 << 10)
	if err := cl.Create("v", int64(len(payload)), int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteInterval("v", 0, int64(len(payload)), payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadInterval("v", 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("compressed wire round trip corrupted the payload")
	}
	if in := srv.BytesIn(); in >= int64(len(payload)) {
		t.Errorf("server received %d wire bytes for a %d-byte write: not compressed", in, len(payload))
	}
	if out := srv.BytesOut(); out >= int64(len(payload)) {
		t.Errorf("server sent %d wire bytes for a %d-byte read: not compressed", out, len(payload))
	}
}

// TestWireCompressionBailsOutOnRandomPayload sends incompressible data: the
// adaptive encoder must fall back to the plain payload (no frame overhead on
// the wire) and the bytes must still round-trip exactly.
func TestWireCompressionBailsOutOnRandomPayload(t *testing.T) {
	reg := obs.NewRegistry()
	srv, cl := startCodecServer(t, reg, ServerOptions{}, Options{Codec: compress.Default()})

	payload := make([]byte, 32<<10)
	rand.New(rand.NewSource(41)).Read(payload)
	if err := cl.Create("r", int64(len(payload)), int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteInterval("r", 0, int64(len(payload)), payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadInterval("r", 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("bail-out round trip corrupted the payload")
	}
	// The payload went plain: exactly the logical bytes on the wire, and the
	// bail-out counted on both encoding ends.
	if in := srv.BytesIn(); in != int64(len(payload)) {
		t.Errorf("server received %d wire bytes, want the plain payload %d", in, len(payload))
	}
	if reg.Sum("dooc_remote_client_compress_bailouts_total") == 0 {
		t.Error("client never counted the bail-out")
	}
	if reg.Sum("dooc_remote_server_compress_bailouts_total") == 0 {
		t.Error("server never counted the bail-out")
	}
}

// TestWireCompressionMetricsReconcile checks the compressed wire is still
// accounted symmetrically — what one end's encoder puts on the wire the
// other end's decoder takes off — and that the per-codec invariant
// stored <= raw holds on every encoding path.
func TestWireCompressionMetricsReconcile(t *testing.T) {
	reg := obs.NewRegistry()
	_, cl := startCodecServer(t, reg, ServerOptions{}, Options{Codec: compress.Default()})

	payload := wirePayload(64 << 10)
	if err := cl.Create("m", int64(len(payload)), int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteInterval("m", 0, int64(len(payload)), payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.ReadInterval("m", 0, int64(len(payload))); err != nil {
			t.Fatal(err)
		}
	}

	// Wire symmetry survives compression: both ends count wire bytes.
	if in, out := reg.Sum("dooc_remote_server_bytes_in_total"), reg.Sum("dooc_remote_client_bytes_out_total"); in != out {
		t.Errorf("server bytes in %d != client bytes out %d", in, out)
	}
	if out, in := reg.Sum("dooc_remote_server_bytes_out_total"), reg.Sum("dooc_remote_client_bytes_in_total"); out != in {
		t.Errorf("server bytes out %d != client bytes in %d", out, in)
	}
	// Encoder/decoder symmetry: client-encoded frames are server-decoded and
	// vice versa, codec for codec.
	for _, name := range compress.Names() {
		cw := reg.SumWhere("dooc_remote_client_compress_stored_bytes_total", "codec", name)
		sr := reg.SumWhere("dooc_remote_server_decompress_stored_bytes_total", "codec", name)
		if cw != sr {
			t.Errorf("codec %s: client wrote %d frame bytes, server decoded %d", name, cw, sr)
		}
		sw := reg.SumWhere("dooc_remote_server_compress_stored_bytes_total", "codec", name)
		cr := reg.SumWhere("dooc_remote_client_decompress_stored_bytes_total", "codec", name)
		if sw != cr {
			t.Errorf("codec %s: server wrote %d frame bytes, client decoded %d", name, sw, cr)
		}
		for _, prefix := range []string{"dooc_remote_client", "dooc_remote_server"} {
			raw := reg.SumWhere(prefix+"_compress_raw_bytes_total", "codec", name)
			stored := reg.SumWhere(prefix+"_compress_stored_bytes_total", "codec", name)
			if name != "raw" && stored > raw {
				t.Errorf("%s codec %s stored %d > raw %d", prefix, name, stored, raw)
			}
		}
	}
	// Both directions actually compressed something.
	if reg.Sum("dooc_remote_client_compress_stored_bytes_total") == 0 {
		t.Error("client never compressed a request payload")
	}
	if reg.Sum("dooc_remote_server_compress_stored_bytes_total") == 0 {
		t.Error("server never compressed a response payload")
	}
	// The ratio gauges report a win (>100%).
	if r := reg.Sum("dooc_remote_client_compress_ratio_percent"); r <= 100 {
		t.Errorf("client wire ratio gauge = %d%%, want > 100", r)
	}
	if r := reg.Sum("dooc_remote_server_compress_ratio_percent"); r <= 100 {
		t.Errorf("server wire ratio gauge = %d%%, want > 100", r)
	}
}
