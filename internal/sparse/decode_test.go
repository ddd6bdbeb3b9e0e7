package sparse

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

// encodeV1 returns m's V1 encoding copied into a buffer whose base sits
// `skew` bytes past an 8-byte boundary.
func encodeV1(t *testing.T, m *CSR, skew int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCRS(&buf, m); err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, buf.Len()/8+2)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))
	out := raw[skew : skew+buf.Len()]
	copy(out, buf.Bytes())
	return out
}

// inside reports whether a non-empty slice's first element lies in data.
func inside[T any](s []T, data []byte) bool {
	if len(s) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	base := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return p >= base && p < base+uintptr(len(data))
}

// TestViewMatchesDecode: across odd and even nnz, empty matrices and empty
// rows, the view decodes bit for bit what the owned decoder does. At an
// aligned base every section aliases the input; at a skewed base the
// sections that lose alignment are copies that still compare equal, and the
// owned decoder never aliases.
func TestViewMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		name string
		m    *CSR
	}{
		{"empty-0x0", &CSR{RowPtr: []int64{0}}},
		{"empty-3x4", FromDense(3, 4, make([]float64, 12))},
		{"odd-nnz-1", FromDense(1, 1, []float64{-2.5})},
		{"even-nnz-4", FromDense(2, 3, []float64{1, 0, 2, 0, -3.5, 4})},
		{"odd-nnz-zero-rows", FromDense(4, 3, []float64{0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, math.Inf(-1)})},
		{"random-a", randomCSR(rng, 17)},
		{"random-b", randomCSR(rng, 31)},
	}
	sawOdd := false
	for _, tc := range cases {
		sawOdd = sawOdd || tc.m.NNZ()%2 == 1
		for _, skew := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/skew%d", tc.name, skew), func(t *testing.T) {
				data := encodeV1(t, tc.m, skew)
				owned, err := DecodeCRSBytes(data)
				if err != nil {
					t.Fatal(err)
				}
				view, inPlace, err := ViewCRSBytes(data)
				if err != nil {
					t.Fatal(err)
				}
				if !csrEqual(owned, tc.m) || !csrEqual(view, owned) {
					t.Fatal("view and owned decode disagree with the written matrix")
				}
				bitsEqual(t, "view values", view.Val, owned.Val)
				if inside(owned.RowPtr, data) || inside(owned.ColIdx, data) || inside(owned.Val, data) {
					t.Fatal("DecodeCRSBytes aliased its input")
				}
				if !crsLittleEndian {
					return
				}
				// Row pointers and values need 8-byte alignment, column
				// indices 4-byte.
				wantRow, wantCol := skew%8 == 0, skew%4 == 0
				if got := inside(view.RowPtr, data); got != wantRow {
					t.Errorf("RowPtr aliased=%v, want %v", got, wantRow)
				}
				if len(view.ColIdx) > 0 {
					if got := inside(view.ColIdx, data); got != wantCol {
						t.Errorf("ColIdx aliased=%v, want %v", got, wantCol)
					}
					if got := inside(view.Val, data); got != wantRow {
						t.Errorf("Val aliased=%v, want %v", got, wantRow)
					}
				}
				if wantInPlace := wantRow && (wantCol || len(view.ColIdx) == 0); inPlace != wantInPlace {
					t.Errorf("inPlace=%v, want %v", inPlace, wantInPlace)
				}
			})
		}
	}
	if !sawOdd {
		t.Fatal("parity table has no odd-nnz matrix")
	}
}

// TestCRSEvenNNZLayoutUnchanged pins the on-disk bytes: an even-nnz file is
// byte-identical to the layout before the alignment pad, and an odd-nnz
// file carries exactly four more bytes.
func TestCRSEvenNNZLayoutUnchanged(t *testing.T) {
	even := encodeV1(t, FromDense(2, 3, []float64{1, 0, 2, 0, -3.5, 4}), 0)
	if got := fmt.Sprintf("%x", sha256.Sum256(even)); got != "547108a80dfe76feb3ee870fcf9a85164c30a722b246880b25a6559cd0f7809c" {
		t.Errorf("even-nnz file changed: sha256 %s", got)
	}
	odd := FromDense(3, 3, []float64{1, 0, 2, 0, 3, 0, 4, 0, 5})
	if got, want := FileBytes(odd.Rows, odd.NNZ()), int64(HeaderBytes+8*4+12*5+4+4); got != want {
		t.Errorf("FileBytes(odd) = %d, want %d", got, want)
	}
}

// legacyV1 re-encodes an odd-nnz V1 block without its pad, as files were
// written before the aligned layout.
func legacyV1(t *testing.T, m *CSR) []byte {
	t.Helper()
	data := encodeV1(t, m, 0)
	colEnd := HeaderBytes + 8*(m.Rows+1) + 4*int(m.NNZ())
	out := append(append([]byte(nil), data[:colEnd]...), data[colEnd+4:]...)
	body := len(out) - 4
	binary.LittleEndian.PutUint32(out[body:], crc32.Checksum(out[:body], crsCRCTable))
	return out
}

// TestCRSRejectsBadPadAndLegacyLayout: a nonzero pad is rejected even under
// a valid CRC, and an unpadded odd-nnz block fails with the restage error
// on every read path.
func TestCRSRejectsBadPadAndLegacyLayout(t *testing.T) {
	m := FromDense(3, 3, []float64{1, 0, 2, 0, 3, 0, 4, 0, 5})
	data := encodeV1(t, m, 0)
	padAt := HeaderBytes + 8*(m.Rows+1) + 4*int(m.NNZ())
	data[padAt+1] = 7
	body := len(data) - 4
	binary.LittleEndian.PutUint32(data[body:], crc32.Checksum(data[:body], crsCRCTable))
	if _, _, err := ViewCRSBytes(data); err == nil || !strings.Contains(err.Error(), "pad") {
		t.Errorf("nonzero pad: err = %v, want a pad error", err)
	}

	legacy := legacyV1(t, m)
	// The reconstruction must be the exact bytes the unpadded writer made.
	if got := fmt.Sprintf("%x", sha256.Sum256(legacy)); got != "70fcb9e90a22ed5b4fd7987490bd33a2e8b0a97cff22f074741fe03216a427bb" {
		t.Fatalf("legacy reconstruction sha256 %s", got)
	}
	readers := map[string]func([]byte) error{
		"view":   func(b []byte) error { _, _, err := ViewCRSBytes(b); return err },
		"decode": func(b []byte) error { _, err := DecodeCRSBytes(b); return err },
		"read":   func(b []byte) error { _, err := ReadCRS(bytes.NewReader(b)); return err },
	}
	for name, read := range readers {
		if err := read(legacy); err == nil || !strings.Contains(err.Error(), "restage") {
			t.Errorf("%s of legacy odd-nnz block: err = %v, want the restage error", name, err)
		}
	}
}

// TestCRSHeaderBitFlipsStayBounded flips every bit of the shape words of a
// V1 and a V2 file: each read must fail (or return the same matrix) while
// allocating no more than a small multiple of the input.
func TestCRSHeaderBitFlipsStayBounded(t *testing.T) {
	m := randomCSR(rand.New(rand.NewSource(9)), 30)
	var v1, v2 bytes.Buffer
	if err := WriteCRS(&v1, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteCRS2(&v2, m); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v1": v1.Bytes(), "v2": v2.Bytes()} {
		for bit := 8 * 8; bit < 8*HeaderBytes; bit++ {
			mut := append([]byte(nil), data...)
			mut[bit/8] ^= 1 << (bit % 8)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := ReadCRS(bytes.NewReader(mut))
			runtime.ReadMemStats(&after)
			if err == nil && !csrEqual(got, m) {
				t.Fatalf("%s: header bit %d returned a different matrix without error", name, bit)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+1<<16) {
				t.Fatalf("%s: header bit %d allocated %d bytes for a %d-byte input", name, bit, grew, len(data))
			}
		}
	}
}

// TestReadCRSReadPaths: a length-reporting reader, a plain stream and a
// file all decode the same V1 (odd nnz) and V2 bytes, and a file cut short
// fails on the exact-length check.
func TestReadCRSReadPaths(t *testing.T) {
	m := FromDense(3, 3, []float64{1, 0, 2, 0, 3, 0, 4, 0, 5})
	writers := map[string]func(io.Writer, *CSR) error{"v1": WriteCRS, "v2": WriteCRS2}
	for name, write := range writers {
		var buf bytes.Buffer
		if err := write(&buf, m); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".crs")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		reads := map[string]func() (*CSR, error){
			"sized":  func() (*CSR, error) { return ReadCRS(bytes.NewReader(buf.Bytes())) },
			"stream": func() (*CSR, error) { return ReadCRS(iotest.OneByteReader(bytes.NewReader(buf.Bytes()))) },
			"file":   func() (*CSR, error) { return ReadCRSFile(path) },
		}
		for how, read := range reads {
			got, err := read()
			if err != nil || !csrEqual(got, m) {
				t.Errorf("%s %s: got %+v, %v", name, how, got, err)
			}
		}
		if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-1], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCRSFile(path); err == nil {
			t.Errorf("%s: truncated file decoded", name)
		}
	}
}
