package sparse

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadCRS: arbitrary bytes must never panic the binary CRS readers or
// drive an allocation past what the input justifies — they either decode
// to a valid matrix or return an error. The storage layer feeds file
// contents straight into this path, and the view and owned decoders must
// agree on every input.
func FuzzReadCRS(f *testing.F) {
	// Seed with valid V1 (even and odd nnz, so with and without the
	// alignment pad) and V2 encodings, truncations, payload corruption and
	// bit flips in every header shape word.
	even := FromDense(2, 3, []float64{1, 0, 2, 0, -3.5, 4})
	odd := FromDense(3, 3, []float64{1, 0, 2, 0, 3, 0, 4, 0, 5})
	var seeds [][]byte
	for _, m := range []*CSR{even, odd} {
		for _, write := range []func(io.Writer, *CSR) error{WriteCRS, WriteCRS2} {
			var buf bytes.Buffer
			if err := write(&buf, m); err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, buf.Bytes())
		}
	}
	for _, valid := range seeds {
		f.Add(valid)
		for _, cut := range []int{0, 8, len(valid) / 2, len(valid) - 1} {
			f.Add(valid[:cut])
		}
		mut := append([]byte(nil), valid...)
		mut[len(mut)/2] ^= 0xff
		f.Add(mut)
		for _, at := range []int{8, 15, 16, 23, 24, 31} {
			for _, flip := range []byte{0x01, 0x40, 0x80} {
				mut := append([]byte(nil), valid...)
				mut[at] ^= flip
				f.Add(mut)
			}
		}
	}
	f.Add([]byte("DOOCCRS1 garbage"))
	f.Add([]byte("DOOCCRS2 garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCRS(bytes.NewReader(data))
		owned, oerr := DecodeCRSBytes(data)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("ReadCRS err=%v, DecodeCRSBytes err=%v", err, oerr)
		}
		if err != nil {
			return
		}
		// Anything accepted must be structurally valid, and identical
		// through both decoders.
		if verr := got.Validate(); verr != nil {
			t.Fatalf("accepted invalid matrix: %v", verr)
		}
		if !csrEqual(got, owned) {
			t.Fatal("view and owned decoders disagree")
		}
	})
}

// FuzzReadMatrixMarket: arbitrary text must never panic the .mtx parser.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 5 2\n")
	f.Fuzz(func(t *testing.T, src string) {
		got, err := ReadMatrixMarket(strings.NewReader(src))
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("accepted invalid matrix: %v", verr)
		}
	})
}
