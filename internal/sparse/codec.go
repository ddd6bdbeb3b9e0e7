package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary CRS file format.
//
// The paper stores every sub-matrix "in a separate file in binary Compressed
// Row Storage (CRS) format". We use a little-endian layout with a small
// header and a CRC so that truncated or corrupted files are detected rather
// than silently mis-multiplied:
//
//	offset  size  field
//	0       8     magic "DOOCCRS1"
//	8       8     rows  (int64)
//	16      8     cols  (int64)
//	24      8     nnz   (int64)
//	32      8*(rows+1)  row pointers (int64)
//	...     4*nnz       column indices (int32)
//	...     4*(nnz%2)   zero pad, so the values start 8-byte aligned
//	...     8*nnz       values (float64)
//	last    4     CRC32 (Castagnoli) of everything before it, pad included
//
// Every section starts at a multiple of its element size from the start of
// the file, so a block held in an aligned buffer (a storage lease) can be
// multiplied in place (ViewCRSBytes). The pad must be zero; a file written
// before the pad existed fails the exact-length check with an error asking
// for the matrix to be restaged.
const crsMagic = "DOOCCRS1"

// HeaderBytes is the size of the fixed CRS header.
const HeaderBytes = 32

// FileBytes returns the exact on-disk size of a CRS file with the given
// shape, including header, alignment pad and trailing CRC.
func FileBytes(rows int, nnz int64) int64 {
	return HeaderBytes + 8*int64(rows+1) + 12*nnz + valuePad(nnz) + 4
}

// valuePad is the number of zero bytes between the column indices and the
// values: 4 when nnz is odd, so the values stay 8-byte aligned.
func valuePad(nnz int64) int64 { return 4 * (nnz % 2) }

// WriteCRS writes m to w in binary CRS format.
func WriteCRS(w io.Writer, m *CSR) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("sparse: refusing to write invalid matrix: %w", err)
	}
	crc := crc32.New(crsCRCTable)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	if _, err := bw.WriteString(crsMagic); err != nil {
		return err
	}
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m.Cols))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m.NNZ()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	// Encode in slabs: per-element writes would bottleneck the I/O filters.
	const slabElems = 64 << 10
	slab := make([]byte, 8*slabElems)
	for off := 0; off < len(m.RowPtr); off += slabElems {
		end := min(off+slabElems, len(m.RowPtr))
		for i, p := range m.RowPtr[off:end] {
			binary.LittleEndian.PutUint64(slab[8*i:], uint64(p))
		}
		if _, err := bw.Write(slab[:8*(end-off)]); err != nil {
			return err
		}
	}
	for off := 0; off < len(m.ColIdx); off += slabElems {
		end := min(off+slabElems, len(m.ColIdx))
		for i, c := range m.ColIdx[off:end] {
			binary.LittleEndian.PutUint32(slab[4*i:], uint32(c))
		}
		if _, err := bw.Write(slab[:4*(end-off)]); err != nil {
			return err
		}
	}
	var pad [4]byte
	if _, err := bw.Write(pad[:valuePad(m.NNZ())]); err != nil {
		return err
	}
	for off := 0; off < len(m.Val); off += slabElems {
		end := min(off+slabElems, len(m.Val))
		for i, v := range m.Val[off:end] {
			binary.LittleEndian.PutUint64(slab[8*i:], math.Float64bits(v))
		}
		if _, err := bw.Write(slab[:8*(end-off)]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// CRC of all bytes written so far, appended raw (not part of its own sum).
	var crcBytes [4]byte
	binary.LittleEndian.PutUint32(crcBytes[:], crc.Sum32())
	_, err := w.Write(crcBytes[:])
	return err
}

// ReadCRS reads a binary CRS matrix (V1 or V2) from r, verifying structure
// and CRC. It reads r to the end and decodes the bytes in memory; the
// returned matrix owns that buffer, so V1 sections need no second copy. A
// reader that reports its remaining length (bytes.Reader, strings.Reader,
// bytes.Buffer) is read into a buffer of exactly that size.
func ReadCRS(r io.Reader) (*CSR, error) {
	size := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		size = int64(l.Len())
	}
	return readCRSSized(r, size)
}

// readCRSSized is ReadCRS with the input's length known up front (size >=
// 0: exactly size bytes are read) or not (size < 0: r is read to EOF).
func readCRSSized(r io.Reader, size int64) (*CSR, error) {
	var data []byte
	var err error
	if size < 0 {
		data, err = io.ReadAll(r)
	} else {
		data = make([]byte, size)
		_, err = io.ReadFull(r, data)
	}
	if err != nil {
		return nil, fmt.Errorf("sparse: reading CRS: %w", err)
	}
	m, _, err := ViewCRSBytes(data)
	return m, err
}

// WriteCRSFile writes m to path atomically (via a temp file + rename).
func WriteCRSFile(path string, m *CSR) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteCRS(f, m); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCRSFile reads a binary CRS matrix from path into a buffer of the
// file's size, which the returned matrix owns.
func ReadCRSFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	m, err := readCRSSized(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// ReadCRSHeader reads only the shape of a CRS file, without its payload.
func ReadCRSHeader(path string) (rows, cols int, nnz int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	hdr := make([]byte, HeaderBytes)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, 0, 0, fmt.Errorf("%s: short CRS header: %w", path, err)
	}
	if m := string(hdr[:8]); m != crsMagic && m != crsMagicV2 {
		return 0, 0, 0, fmt.Errorf("%s: bad CRS magic %q", path, hdr[:8])
	}
	rows = int(binary.LittleEndian.Uint64(hdr[8:]))
	cols = int(binary.LittleEndian.Uint64(hdr[16:]))
	nnz = int64(binary.LittleEndian.Uint64(hdr[24:]))
	return rows, cols, nnz, nil
}
