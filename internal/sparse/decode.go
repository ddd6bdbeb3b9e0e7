package sparse

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"unsafe"

	"dooc/internal/compress"
)

// In-memory CRS decoding: the one decoder behind DecodeCRSBytes,
// ViewCRSBytes and ReadCRS, for both formats. Every path checks the header
// shape, the exact length (V1) or each frame's bounds (V2), the CRC and
// Validate; no typed slice is allocated before the bytes that fill it have
// been checked, so a forged header cannot drive an allocation.
//
// A V1 block's sections are 8-byte aligned relative to its start (the pad
// before the values section keeps them so for odd nnz). On a little-endian
// host whose buffer base is aligned, a view decode therefore reinterprets
// the sections in place instead of copying them; a section that is not
// aligned falls back to a copy.

var crsLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

var crsCRCTable = crc32.MakeTable(crc32.Castagnoli)

// DecodeCRSBytes decodes a binary CRS block (V1 or V2) held in memory into
// a matrix that owns its slices: it never aliases data, so the result
// outlives the buffer.
func DecodeCRSBytes(data []byte) (*CSR, error) {
	m, _, err := decodeCRS(data, false)
	return m, err
}

// ViewCRSBytes decodes a binary CRS block with the same checks as
// DecodeCRSBytes, but aliases each V1 section inside data where the host
// and alignment allow. inPlace reports that every section aliases data (a
// V2 block never does: its sections are decompressed). The matrix is valid
// only while data is: for a storage lease, until the lease is released.
func ViewCRSBytes(data []byte) (m *CSR, inPlace bool, err error) {
	return decodeCRS(data, true)
}

func decodeCRS(data []byte, alias bool) (*CSR, bool, error) {
	if len(data) < HeaderBytes+4 {
		return nil, false, fmt.Errorf("sparse: %d bytes is shorter than a CRS header", len(data))
	}
	v2 := false
	switch string(data[:8]) {
	case crsMagic:
	case crsMagicV2:
		v2 = true
	default:
		return nil, false, fmt.Errorf("sparse: bad CRS magic %q", data[:8])
	}
	rows := int64(binary.LittleEndian.Uint64(data[8:]))
	cols := int64(binary.LittleEndian.Uint64(data[16:]))
	nnz := int64(binary.LittleEndian.Uint64(data[24:]))
	const maxDim = 1 << 40
	if rows < 0 || cols < 0 || nnz < 0 || rows > maxDim || cols > maxDim || nnz > maxDim {
		return nil, false, fmt.Errorf("sparse: implausible CRS shape rows=%d cols=%d nnz=%d", rows, cols, nnz)
	}
	if want := FileBytes(int(rows), nnz); !v2 && int64(len(data)) != want {
		if valuePad(nnz) > 0 && int64(len(data)) == want-valuePad(nnz) {
			return nil, false, fmt.Errorf("sparse: CRS block with odd nnz=%d has no alignment pad before its values (written before the aligned V1 layout); restage the matrix", nnz)
		}
		return nil, false, fmt.Errorf("sparse: CRS block is %d bytes, shape says %d", len(data), want)
	}
	body := len(data) - 4
	if got, want := binary.LittleEndian.Uint32(data[body:]), crc32.Checksum(data[:body], crsCRCTable); got != want {
		return nil, false, fmt.Errorf("sparse: CRS checksum mismatch: file=%08x computed=%08x", got, want)
	}
	m := &CSR{Rows: int(rows), Cols: int(cols)}
	inPlace := false
	if v2 {
		if err := m.decodeFrames(data[HeaderBytes:body], rows, nnz); err != nil {
			return nil, false, err
		}
	} else {
		rowEnd := HeaderBytes + 8*(rows+1)
		colEnd := rowEnd + 4*nnz
		valStart := colEnd + valuePad(nnz)
		for _, b := range data[colEnd:valStart] {
			if b != 0 {
				return nil, false, fmt.Errorf("sparse: nonzero CRS alignment pad")
			}
		}
		var inR, inC, inV bool
		m.RowPtr, inR = section[int64](data[HeaderBytes:rowEnd], alias)
		m.ColIdx, inC = section[int32](data[rowEnd:colEnd], alias)
		m.Val, inV = section[float64](data[valStart:body], alias)
		inPlace = inR && inC && inV
	}
	if err := m.Validate(); err != nil {
		return nil, false, fmt.Errorf("sparse: invalid CRS payload: %w", err)
	}
	return m, inPlace, nil
}

// decodeFrames fills m's slices from the three V2 section frames in
// payload (everything between the header and the CRC). Each frame is read
// only as far as the bytes present, and a section becomes a typed slice
// only once it has decoded to the length the shape requires.
func (m *CSR) decodeFrames(payload []byte, rows, nnz int64) error {
	var raw [3][]byte
	for i := range raw {
		if len(payload) < 8 {
			return fmt.Errorf("sparse: short section %d length", i)
		}
		frameLen := binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
		rawLen := sectionRawLen(i, rows, nnz)
		// Adaptive encoding never produces a frame larger than raw plus
		// the frame header, so anything bigger is corruption, not data.
		if frameLen > uint64(rawLen)+compress.FrameHeaderLen {
			return fmt.Errorf("sparse: section %d frame claims %d bytes for a %d-byte section", i, frameLen, rawLen)
		}
		if frameLen > uint64(len(payload)) {
			return fmt.Errorf("sparse: short section %d frame: %d of %d bytes", i, len(payload), frameLen)
		}
		out, _, err := compress.DecodeFrame(payload[:frameLen])
		if err != nil {
			return fmt.Errorf("sparse: section %d: %w", i, err)
		}
		if int64(len(out)) != rawLen {
			return fmt.Errorf("sparse: section %d decoded to %d bytes, want %d", i, len(out), rawLen)
		}
		raw[i] = out
		payload = payload[frameLen:]
	}
	if len(payload) != 0 {
		return fmt.Errorf("sparse: %d trailing bytes after the CRS sections", len(payload))
	}
	// The decoded buffers are fresh, so adopting them in place is safe.
	m.RowPtr, _ = section[int64](raw[0], true)
	m.ColIdx, _ = section[int32](raw[1], true)
	m.Val, _ = section[float64](raw[2], true)
	return nil
}

// section returns src's little-endian words as a []T. With alias set, on a
// little-endian host, a base aligned for T is reinterpreted in place
// (inPlace true); anything else is copied into a new slice.
func section[T int32 | int64 | float64](src []byte, alias bool) (s []T, inPlace bool) {
	size := int(unsafe.Sizeof(*new(T)))
	n := len(src) / size
	if n == 0 {
		return []T{}, true
	}
	p := unsafe.Pointer(unsafe.SliceData(src))
	if alias && crsLittleEndian && uintptr(p)%uintptr(size) == 0 {
		return unsafe.Slice((*T)(p), n), true
	}
	s = make([]T, n)
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), n*size)
	copy(b, src)
	if !crsLittleEndian {
		for i := 0; i < len(b); i += size {
			slices.Reverse(b[i : i+size])
		}
	}
	return s, false
}
