// Package snapshot implements the simulator's versioned, deterministic
// binary checkpoint format.
//
// A snapshot is a framed byte stream:
//
//	magic (8B) | format version (u16) | CRC32-IEEE of body (u32) |
//	body length (u64) | meta length (u32) | CRC32-IEEE of meta (u32) |
//	meta | body
//
// The meta block (v2) is a small, independently CRC-framed node
// descriptor (NodeMeta): which structural configuration the body
// belongs to, the engine cycle it was cut at, and the
// measured-parameter trajectory it has followed. Checkpoint stores and
// transports classify a snapshot from the meta block alone (see
// PeekNodeMeta) without decoding simulator state.
//
// The body is a flat little-endian sequence of primitive values written
// by the component serializers (sim.System orchestrates the order). The
// encoding is *canonical*: serializing the same semantic simulator state
// always produces the same bytes — maps are emitted in sorted key order,
// pooled free slots are reduced to their live links, and transient
// scratch state is skipped — which is what lets the golden-state
// regression corpus compare checkpoints byte-for-byte.
//
// Decoding is defensive by construction: every length field is validated
// against the bytes actually present before any allocation, the body is
// read incrementally (a corrupt length prefix cannot force a large
// allocation), booleans must be 0 or 1, and the CRC is verified before
// the reader hands out a single value. Corrupt or truncated input yields
// an error, never a panic or an out-of-memory allocation — the fuzz
// harnesses in this package and in internal/sim enforce that.
//
// Format versioning policy: FormatVersion is bumped whenever the byte
// layout of any serialized component changes (fields added, removed,
// reordered, or re-encoded). Readers reject snapshots from any other
// version — checkpoints are cheap to regenerate, so there is no
// cross-version migration path.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// FormatVersion identifies the snapshot byte layout. Bump it on any
	// change to the serialized state of any component.
	// v2: the container gained the node-metadata block (checkpoint-tree
	// forking) — header grew the meta length/CRC fields.
	// v3: cache lines no longer carry the filling PC and core (dead
	// state nothing read back); each resident line is 17 bytes, not 33.
	FormatVersion = 3

	magic     = "BUMPSNP\x00"
	headerLen = len(magic) + 2 + 4 + 8 + 4 + 4

	// maxMetaLen bounds the meta block — a node descriptor is tens of
	// bytes; anything larger is a corrupt length field.
	maxMetaLen = 4096
)

// NodeMeta identifies a checkpoint-tree node: which structural
// configuration the snapshot belongs to, the engine cycle it was cut
// at, and the measured-parameter trajectory the state has followed. A
// zero NodeMeta encodes as an empty meta block.
type NodeMeta struct {
	// Structural is the producer's structural-configuration digest
	// (sim's structuralDigest; 32 bytes, nil when unset).
	Structural []byte
	// Cut is the absolute engine cycle the snapshot was taken at.
	Cut uint64
	// ForkAt is the cycle at which deferred measured parameters bind
	// (0 = bound from the start of the run).
	ForkAt uint64
	// Prefix names the measured-parameter trajectory the state followed
	// up to Cut; "" is the canonical (all-zero) trunk.
	Prefix string
}

// isZero reports whether the meta carries no information (legacy
// callers that never set it).
func (m NodeMeta) isZero() bool {
	return len(m.Structural) == 0 && m.Cut == 0 && m.ForkAt == 0 && m.Prefix == ""
}

func (m NodeMeta) encode() []byte {
	if m.isZero() {
		return nil
	}
	out := make([]byte, 0, 8+8+4+len(m.Structural)+4+len(m.Prefix))
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], m.Cut)
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], m.ForkAt)
	out = append(out, b8[:]...)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(m.Structural)))
	out = append(out, b4[:]...)
	out = append(out, m.Structural...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(m.Prefix)))
	out = append(out, b4[:]...)
	out = append(out, m.Prefix...)
	return out
}

func decodeNodeMeta(data []byte) (NodeMeta, error) {
	var m NodeMeta
	if len(data) == 0 {
		return m, nil
	}
	off := 0
	need := func(n int) ([]byte, error) {
		if len(data)-off < n {
			return nil, formatErrf("truncated meta block: need %d bytes, have %d", n, len(data)-off)
		}
		b := data[off : off+n]
		off += n
		return b, nil
	}
	b, err := need(8)
	if err != nil {
		return m, err
	}
	m.Cut = binary.LittleEndian.Uint64(b)
	if b, err = need(8); err != nil {
		return m, err
	}
	m.ForkAt = binary.LittleEndian.Uint64(b)
	if b, err = need(4); err != nil {
		return m, err
	}
	n := int(binary.LittleEndian.Uint32(b))
	if b, err = need(n); err != nil {
		return m, err
	}
	m.Structural = append([]byte(nil), b...)
	if b, err = need(4); err != nil {
		return m, err
	}
	n = int(binary.LittleEndian.Uint32(b))
	if b, err = need(n); err != nil {
		return m, err
	}
	m.Prefix = string(b)
	if off != len(data) {
		return m, formatErrf("%d trailing bytes in meta block", len(data)-off)
	}
	return m, nil
}

// ErrFormat wraps all container-level decode failures (bad magic,
// version mismatch, truncation, CRC).
type errFormat struct{ msg string }

func (e *errFormat) Error() string { return "snapshot: " + e.msg }

func formatErrf(format string, args ...any) error {
	return &errFormat{msg: fmt.Sprintf(format, args...)}
}

// ---- Writer -----------------------------------------------------------

// Writer accumulates a snapshot body in memory; Flush frames it with the
// header and writes the whole snapshot out. Writer methods never fail
// (the body is an in-memory buffer); errors surface at Flush.
type Writer struct {
	buf  bytes.Buffer
	meta NodeMeta
}

// SetNodeMeta attaches the node descriptor the container's meta block
// will carry. Call any time before Flush; the zero value (the default)
// writes an empty block.
func (w *Writer) SetNodeMeta(m NodeMeta) { w.meta = m }

// NewWriter returns an empty snapshot writer.
func NewWriter() *Writer { return &Writer{} }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf.WriteByte(v) }

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	w.buf.Write(b[:])
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf.Write(b[:])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}

// I64 writes an int64 as its two's-complement uint64 image.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64 as its IEEE-754 bit image.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a boolean as one canonical byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes writes a u32 length prefix followed by the raw bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf.Write(b)
}

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf.WriteString(s)
}

// Section writes a named section marker. Readers verify markers in
// order, so a mis-sequenced decode fails with a descriptive error
// instead of silently misinterpreting bytes.
func (w *Writer) Section(name string) {
	w.U8(0x5E)
	w.String(name)
}

// Len returns the current body size in bytes.
func (w *Writer) Len() int { return w.buf.Len() }

// Body returns the accumulated body bytes without the container header.
// The slice aliases the writer's buffer: it is valid until the next
// write and must not be mutated. Transports that carry their own
// framing (internal/wire) embed bodies directly instead of paying for
// the full container of Flush.
func (w *Writer) Body() []byte { return w.buf.Bytes() }

// Flush frames the accumulated body and writes the full snapshot to out.
func (w *Writer) Flush(out io.Writer) error {
	body := w.buf.Bytes()
	meta := w.meta.encode()
	var hdr [headerLen]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint16(hdr[8:], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[10:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(hdr[14:], uint64(len(body)))
	binary.LittleEndian.PutUint32(hdr[22:], uint32(len(meta)))
	binary.LittleEndian.PutUint32(hdr[26:], crc32.ChecksumIEEE(meta))
	if _, err := out.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := out.Write(meta); err != nil {
		return err
	}
	_, err := out.Write(body)
	return err
}

// ---- Reader -----------------------------------------------------------

// Reader decodes a snapshot body. Errors are sticky: after the first
// failure every read returns a zero value, so component decoders can run
// straight-line and check Err (or Finish) once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
	meta NodeMeta
}

// NodeMeta returns the node descriptor carried by the container's meta
// block (the zero value for snapshots written without one, and always
// for bare-body readers).
func (r *Reader) NodeMeta() NodeMeta { return r.meta }

// readHeader validates magic/version and decodes the CRC-framed meta
// block, leaving r positioned at the start of the body.
func readHeader(r io.Reader) (meta NodeMeta, bodyCRC uint32, bodyLen uint64, err error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return NodeMeta{}, 0, 0, formatErrf("short header: %v", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return NodeMeta{}, 0, 0, formatErrf("bad magic")
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != FormatVersion {
		return NodeMeta{}, 0, 0, formatErrf("format version %d, this build reads %d", v, FormatVersion)
	}
	bodyCRC = binary.LittleEndian.Uint32(hdr[10:])
	bodyLen = binary.LittleEndian.Uint64(hdr[14:])
	metaLen := binary.LittleEndian.Uint32(hdr[22:])
	metaCRC := binary.LittleEndian.Uint32(hdr[26:])
	if metaLen > maxMetaLen {
		return NodeMeta{}, 0, 0, formatErrf("meta block of %d bytes exceeds the %d-byte bound", metaLen, maxMetaLen)
	}
	metaBytes := make([]byte, metaLen)
	if _, err := io.ReadFull(r, metaBytes); err != nil {
		return NodeMeta{}, 0, 0, formatErrf("short meta block: %v", err)
	}
	if got := crc32.ChecksumIEEE(metaBytes); got != metaCRC {
		return NodeMeta{}, 0, 0, formatErrf("meta CRC mismatch: %08x != %08x", got, metaCRC)
	}
	meta, err = decodeNodeMeta(metaBytes)
	if err != nil {
		return NodeMeta{}, 0, 0, err
	}
	return meta, bodyCRC, bodyLen, nil
}

// PeekNodeMeta decodes only the container header and meta block —
// enough to classify a checkpoint (structural digest, cut cycle,
// trajectory prefix) without reading the body. The reader is left
// positioned at the body's first byte.
func PeekNodeMeta(r io.Reader) (NodeMeta, error) {
	meta, _, _, err := readHeader(r)
	return meta, err
}

// NewReader validates the snapshot header, decodes the meta block, and
// reads and CRC-checks the body, returning a reader positioned at its
// start.
func NewReader(r io.Reader) (*Reader, error) {
	meta, wantCRC, bodyLen, err := readHeader(r)
	if err != nil {
		return nil, err
	}

	// Read the body incrementally: a lying length prefix cannot force a
	// large allocation, because the buffer only grows as real bytes
	// arrive (pre-growing is capped at 1MB).
	var buf bytes.Buffer
	if bodyLen < 1<<20 {
		buf.Grow(int(bodyLen))
	}
	n, err := io.Copy(&buf, io.LimitReader(r, int64(bodyLen)))
	if err != nil {
		return nil, formatErrf("body read: %v", err)
	}
	if uint64(n) != bodyLen {
		return nil, formatErrf("truncated body: %d of %d bytes", n, bodyLen)
	}
	if got := crc32.ChecksumIEEE(buf.Bytes()); got != wantCRC {
		return nil, formatErrf("body CRC mismatch: %08x != %08x", got, wantCRC)
	}
	return &Reader{data: buf.Bytes(), meta: meta}, nil
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Fail records a decode error (the first one wins).
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Failf records a formatted decode error.
func (r *Reader) Failf(format string, args ...any) {
	r.Fail(formatErrf(format, args...))
}

// Remaining returns the unread body byte count.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.Failf("truncated: need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a canonical boolean; any byte other than 0 or 1 is an
// error.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Failf("non-canonical boolean")
		return false
	}
}

// Len reads a u32 element count for a sequence whose elements occupy at
// least elemMin encoded bytes each, rejecting counts that could not
// possibly fit in the remaining body. This is the OOM guard: decoders
// size allocations from Len, never from a raw U32.
func (r *Reader) Len(elemMin int) int {
	if elemMin <= 0 {
		elemMin = 1
	}
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if uint64(n)*uint64(elemMin) > uint64(r.Remaining()) {
		r.Failf("sequence length %d exceeds remaining %d bytes", n, r.Remaining())
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len(1)
	b := r.take(n)
	return string(b)
}

// Section verifies the next section marker names `name`.
func (r *Reader) Section(name string) {
	if m := r.U8(); r.err == nil && m != 0x5E {
		r.Failf("section %q: bad marker byte %#x", name, m)
		return
	}
	got := r.String()
	if r.err == nil && got != name {
		r.Failf("section order: have %q, want %q", got, name)
	}
}

// NewBodyReader returns a reader over bare body bytes produced by
// Writer.Body — no container header, no CRC. The caller's transport is
// responsible for integrity (internal/wire frames carry their own CRC).
// The reader aliases data; the slice must stay immutable while read.
func NewBodyReader(data []byte) *Reader { return &Reader{data: data} }

// Finish returns the sticky error, or an error if unread body bytes
// remain (a layout mismatch that happened to stay in bounds).
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return formatErrf("%d trailing bytes after final section", r.Remaining())
	}
	return nil
}
