// Package compress is the middleware's block-compression subsystem. The
// paper's cost model is bytes moved — iterated SpMV out-of-core is bound by
// the SSDs and the interconnect — so every byte not written to scratch or
// shipped between nodes is reclaimed iteration time. This package supplies
// dependency-free codecs specialized for the payloads the runtime actually
// moves (monotone CRS row pointers, sorted column indices, float64 vector
// and value streams) behind a self-describing framed container, so any
// layer can decode any block regardless of which codec produced it.
//
// Codecs are registered in a process-wide registry keyed by a one-byte ID
// that travels in the frame header. The container carries the codec ID, the
// original length, and a CRC32-C of the original bytes: a truncated or
// bit-flipped frame decodes to an attributed error, never to wrong bytes.
//
// Compression is advisory, not guaranteed: EncodeAdaptive falls back to the
// Raw codec whenever a block compresses worse than ~1.1x, so incompressible
// data (random dense vectors) pays only the 18-byte frame header and no
// encode cost on the read path.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// Codec is one pluggable block transform. Encode appends the encoded form
// of src to dst and returns the extended slice; Decode reverses it given
// the original length. Implementations must tolerate arbitrary src bytes in
// Decode: corrupt input returns an error, never panics.
type Codec interface {
	// ID is the codec's wire identity, carried in every frame header.
	ID() uint8
	// Name is the codec's human name (flag values, metric labels).
	Name() string
	// Encode appends the encoded src to dst.
	Encode(dst, src []byte) []byte
	// Decode decodes src, whose original form was rawLen bytes.
	Decode(src []byte, rawLen int) ([]byte, error)
}

// Well-known codec IDs. IDs are wire format: never renumber.
const (
	IDRaw          uint8 = 0 // identity
	IDDeltaVarint  uint8 = 1 // zigzag delta varint over 8-byte words
	IDDeltaVarint3 uint8 = 2 // zigzag delta varint over 4-byte words
	IDFloatShuffle uint8 = 3 // byte-plane transpose + LZ window matcher
)

// ErrCorrupt is wrapped by every decode failure: a frame that is truncated,
// bit-flipped, or structurally invalid. Storage classifies it as
// non-transient (retrying cannot fix bad bytes on disk).
var ErrCorrupt = errors.New("compress: corrupt frame")

// crcTable is the Castagnoli polynomial, matching the CRS file format.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ---- registry ----

var (
	regMu    sync.RWMutex
	byID     = map[uint8]Codec{}
	byName   = map[string]Codec{}
	regOrder []uint8
)

// Register adds a codec to the process-wide registry. Registering a
// duplicate ID or name panics: codec identity is wire format.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byID[c.ID()]; dup {
		panic(fmt.Sprintf("compress: codec ID %d registered twice", c.ID()))
	}
	if _, dup := byName[c.Name()]; dup {
		panic(fmt.Sprintf("compress: codec name %q registered twice", c.Name()))
	}
	byID[c.ID()] = c
	byName[c.Name()] = c
	regOrder = append(regOrder, c.ID())
}

// ByID resolves a codec by its wire ID.
func ByID(id uint8) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byID[id]
	return c, ok
}

// ByName resolves a codec by name ("raw", "delta64", "delta32", "fshuf").
func ByName(name string) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byName[name]
	return c, ok
}

// Names lists the registered codec names in ID order (flag help text).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	ids := append([]uint8(nil), regOrder...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, byID[id].Name())
	}
	return out
}

// Default returns the codec the runtime uses when compression is enabled
// without an explicit choice: FloatShuffle, which wins on the float64-heavy
// payloads that dominate scratch and wire traffic and bails to raw
// elsewhere via EncodeAdaptive.
func Default() Codec { return floatShuffleCodec }

func init() {
	Register(Raw{})
	Register(DeltaVarint{Width: 8, id: IDDeltaVarint, name: "delta64"})
	Register(DeltaVarint{Width: 4, id: IDDeltaVarint3, name: "delta32"})
	Register(floatShuffleCodec)
}

// ---- Raw codec ----

// Raw is the identity codec: frame overhead only, no transform. It is the
// adaptive bail-out target and the negotiated floor between remote peers.
type Raw struct{}

// ID returns IDRaw.
func (Raw) ID() uint8 { return IDRaw }

// Name returns "raw".
func (Raw) Name() string { return "raw" }

// Encode appends src unchanged.
func (Raw) Encode(dst, src []byte) []byte { return append(dst, src...) }

// Decode verifies the length and returns src.
func (Raw) Decode(src []byte, rawLen int) ([]byte, error) {
	if len(src) != rawLen {
		return nil, fmt.Errorf("%w: raw payload is %d bytes, header says %d", ErrCorrupt, len(src), rawLen)
	}
	return append([]byte(nil), src...), nil
}

// ---- framed container ----

// Frame layout (little endian):
//
//	offset  size  field
//	0       4     magic "DOZ1"
//	4       1     codec ID
//	5       1     flags (reserved, 0)
//	6       8     original (decoded) length
//	14      4     CRC32-C of the original bytes
//	18      ...   codec payload
const (
	frameMagic     = "DOZ1"
	FrameHeaderLen = 18
)

// maxFrameRawLen bounds the decoded size a frame may claim, so a corrupt
// header cannot drive a multi-gigabyte allocation.
const maxFrameRawLen = 1 << 40

// EncodeFrame encodes src with c inside a self-describing frame.
func EncodeFrame(c Codec, src []byte) []byte {
	return AppendFrame(make([]byte, 0, FrameHeaderLen+len(src)/2+64), c, src)
}

// AppendFrame appends the frame encoding src with c to dst and returns the
// extended slice. Callers with a reusable destination buffer (the storage
// spill path, the wire encoder) avoid EncodeFrame's per-call allocation.
func AppendFrame(dst []byte, c Codec, src []byte) []byte {
	var hdr [FrameHeaderLen]byte
	copy(hdr[:], frameMagic)
	hdr[4] = c.ID()
	hdr[5] = 0
	binary.LittleEndian.PutUint64(hdr[6:], uint64(len(src)))
	binary.LittleEndian.PutUint32(hdr[14:], crc32.Checksum(src, crcTable))
	return c.Encode(append(dst, hdr[:]...), src)
}

// EncodeAdaptive encodes src with c but bails out to the Raw codec when the
// result saves less than ~10% (raw/compressed ratio below 1.1): random or
// already-dense blocks then cost one memcpy and 18 header bytes instead of
// a pointless decode on every future read. It returns the frame and the
// codec actually used.
func EncodeAdaptive(c Codec, src []byte) ([]byte, Codec) {
	return AppendFrameAdaptive(nil, c, src)
}

// AppendFrameAdaptive is EncodeAdaptive appending into dst. On bail-out the
// attempted frame is truncated in place and the raw frame written over it,
// so the bail-out path costs no second buffer.
func AppendFrameAdaptive(dst []byte, c Codec, src []byte) ([]byte, Codec) {
	if c == nil || c.ID() == IDRaw {
		return AppendFrame(dst, Raw{}, src), Raw{}
	}
	base := len(dst)
	out := AppendFrame(dst, c, src)
	// Keep the codec only when rawLen >= 1.1 * framedLen.
	if int64(len(src))*10 >= int64(len(out)-base)*11 {
		return out, c
	}
	return AppendFrame(out[:base], Raw{}, src), Raw{}
}

// DecodeFrame decodes a framed block, returning the original bytes and the
// codec that produced them. Every failure wraps ErrCorrupt.
func DecodeFrame(frame []byte) ([]byte, Codec, error) {
	if len(frame) < FrameHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(frame), FrameHeaderLen)
	}
	if string(frame[:4]) != frameMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, frame[:4])
	}
	if frame[5] != 0 {
		return nil, nil, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, frame[5])
	}
	rawLen := binary.LittleEndian.Uint64(frame[6:])
	if rawLen > maxFrameRawLen {
		return nil, nil, fmt.Errorf("%w: implausible original length %d", ErrCorrupt, rawLen)
	}
	c, ok := ByID(frame[4])
	if !ok {
		return nil, nil, fmt.Errorf("%w: unknown codec ID %d", ErrCorrupt, frame[4])
	}
	out, err := c.Decode(frame[FrameHeaderLen:], int(rawLen))
	if err != nil {
		return nil, c, fmt.Errorf("codec %s: %w", c.Name(), err)
	}
	if len(out) != int(rawLen) {
		return nil, c, fmt.Errorf("%w: codec %s produced %d bytes, header says %d", ErrCorrupt, c.Name(), len(out), rawLen)
	}
	want := binary.LittleEndian.Uint32(frame[14:])
	if got := crc32.Checksum(out, crcTable); got != want {
		return nil, c, fmt.Errorf("%w: codec %s CRC mismatch (frame %08x, decoded %08x)", ErrCorrupt, c.Name(), want, got)
	}
	return out, c, nil
}

// FrameCodec peeks at a frame's codec without decoding. It errors on
// anything shorter than a header or with a bad magic.
func FrameCodec(frame []byte) (Codec, error) {
	if len(frame) < FrameHeaderLen || string(frame[:4]) != frameMagic {
		return nil, fmt.Errorf("%w: not a frame", ErrCorrupt)
	}
	c, ok := ByID(frame[4])
	if !ok {
		return nil, fmt.Errorf("%w: unknown codec ID %d", ErrCorrupt, frame[4])
	}
	return c, nil
}
