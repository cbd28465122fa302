// Package snapshot provides the binary container format and the primitive
// encoders/decoders used to checkpoint complete simulator state.
//
// The format is deliberately simple and strict:
//
//	magic "OLTPSNAP" | version u32 | section* | crc32 u32
//	section := nameLen u16 | name | payloadLen u64 | payload
//
// All integers are little-endian and fixed-width, floats travel as their
// IEEE-754 bit patterns, and the trailing CRC covers every preceding byte.
// Decoding never trusts a length field: every read is bounds-checked against
// the remaining input, so a corrupted or truncated snapshot produces an
// error (never a panic or an unbounded allocation). Sections are named so a
// reader can verify it consumed exactly the sections a writer produced —
// silent truncation and silent trailing garbage are both decode errors.
//
// The package is a leaf: stateful packages (cache, coherence, kernel, ...)
// implement their own save/load methods in terms of Encoder/Decoder, and
// core.System.SaveState/LoadState orchestrates the machine's named
// sections. A checkpoint is one flat stream: the container writes its own
// sections and then the machine's into the same Writer, under one header
// and one CRC.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies a snapshot stream.
const Magic = "OLTPSNAP"

// Version is the current format version. A Reader refuses any other
// version: state layout changes must bump it.
const Version uint32 = 4

// maxSectionName bounds section names; anything longer is corruption.
const maxSectionName = 255

// Writer frames named sections into one growing buffer, in place: opening
// a section writes its header with a placeholder length word, and the next
// section (or the end of the stream) back-patches it, so no payload is
// copied after it is encoded. Sections are written in the order they are
// opened, which makes the byte stream a deterministic function of the save
// calls.
type Writer struct {
	e      *Encoder // the buffer
	open   int      // offset of the open section's length word, or -1
	sealed bool     // the CRC is written and the stream is closed
}

// NewWriter returns an empty snapshot writer.
func NewWriter() *Writer {
	w := &Writer{e: &Encoder{}}
	w.Reset()
	return w
}

// Reset empties the writer for the next stream and keeps its buffer, so a
// caller that writes a snapshot per checkpoint grows the buffer once. Every
// slice Bytes returned before is overwritten.
func (w *Writer) Reset() {
	w.e.buf = w.e.buf[:0]
	w.open, w.sealed = -1, false
	copy(w.e.grow(len(Magic)), Magic)
	w.e.U32(Version)
}

// Section opens a new named section and returns the encoder for its
// payload. The previous section (if any) is sealed, and with it every
// encoder handed out before: all sections share one buffer.
func (w *Writer) Section(name string) *Encoder {
	if len(name) == 0 || len(name) > maxSectionName {
		panic(fmt.Sprintf("snapshot: section name %q out of range", name))
	}
	if w.sealed {
		panic(fmt.Sprintf("snapshot: section %q opened after the stream was sealed", name))
	}
	w.seal()
	e := w.e
	binary.LittleEndian.PutUint16(e.grow(2), uint16(len(name)))
	copy(e.grow(len(name)), name)
	w.open = len(e.buf)
	e.U64(0) // payload length, back-patched by seal
	return e
}

// seal back-patches the open section's payload length.
func (w *Writer) seal() {
	if w.open >= 0 {
		binary.LittleEndian.PutUint64(w.e.buf[w.open:], uint64(len(w.e.buf)-w.open-8))
		w.open = -1
	}
}

// Bytes seals the stream (the last section's length and the trailing CRC)
// and returns it. The slice aliases the writer's buffer: it is valid until
// the next Reset, and callers that keep it past that must copy it. No
// section may be opened after Bytes.
func (w *Writer) Bytes() []byte {
	if !w.sealed {
		w.seal()
		w.e.U32(crc32.ChecksumIEEE(w.e.buf))
		w.sealed = true
	}
	return w.e.buf
}

// Emit seals the stream and writes it to out.
func (w *Writer) Emit(out io.Writer) error {
	_, err := out.Write(w.Bytes())
	return err
}

// Reader parses a complete snapshot stream: it validates the magic, the
// version, and the CRC up front, then hands out per-section decoders.
type Reader struct {
	names    []string
	payloads [][]byte
	read     []bool
}

// NewReader validates and indexes a snapshot stream read from r.
func NewReader(r io.Reader) (*Reader, error) {
	data, err := io.ReadAll(io.LimitReader(r, 1<<32))
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading stream: %w", err)
	}
	return parse(data)
}

// StreamVersion returns the format version in data's header, and whether
// data starts with the snapshot magic at all. It checks nothing else: a
// caller uses it to tell a stream from another format version apart from a
// corrupt one before deciding what to do with it.
func StreamVersion(data []byte) (uint32, bool) {
	if len(data) < len(Magic)+4 || string(data[:len(Magic)]) != Magic {
		return 0, false
	}
	return binary.LittleEndian.Uint32(data[len(Magic):]), true
}

// parse is the allocation-bounded core of NewReader, shared with the fuzz
// target. It never allocates more than O(len(data)) regardless of what the
// length fields claim.
func parse(data []byte) (*Reader, error) {
	const headerLen = len(Magic) + 4
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("snapshot: stream too short (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, fmt.Errorf("snapshot: version %d, want %d", v, Version)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("snapshot: CRC mismatch (got %#x, want %#x)", got, want)
	}
	rd := &Reader{}
	rest := body[headerLen:]
	for len(rest) > 0 {
		if len(rest) < 2 {
			return nil, fmt.Errorf("snapshot: truncated section header")
		}
		nameLen := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if nameLen == 0 || nameLen > maxSectionName || nameLen > len(rest) {
			return nil, fmt.Errorf("snapshot: section name length %d out of range", nameLen)
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		if len(rest) < 8 {
			return nil, fmt.Errorf("snapshot: section %q truncated before length", name)
		}
		payloadLen := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		if payloadLen > uint64(len(rest)) {
			return nil, fmt.Errorf("snapshot: section %q claims %d bytes, only %d remain", name, payloadLen, len(rest))
		}
		for _, prev := range rd.names {
			if prev == name {
				return nil, fmt.Errorf("snapshot: duplicate section %q", name)
			}
		}
		rd.names = append(rd.names, name)
		rd.payloads = append(rd.payloads, rest[:payloadLen])
		rd.read = append(rd.read, false)
		rest = rest[payloadLen:]
	}
	return rd, nil
}

// Section returns the decoder for a named section, erroring if absent or
// already consumed.
func (r *Reader) Section(name string) (*Decoder, error) {
	for i, n := range r.names {
		if n != name {
			continue
		}
		if r.read[i] {
			return nil, fmt.Errorf("snapshot: section %q read twice", name)
		}
		r.read[i] = true
		return &Decoder{buf: r.payloads[i], section: name}, nil
	}
	return nil, fmt.Errorf("snapshot: section %q missing", name)
}

// Finish errors if any section was never consumed — a snapshot from a
// machine with components this reader does not know about must not load
// silently.
func (r *Reader) Finish() error {
	for i, ok := range r.read {
		if !ok {
			return fmt.Errorf("snapshot: unconsumed section %q", r.names[i])
		}
	}
	return nil
}

// Encoder appends fixed-width primitives to a section payload.
type Encoder struct {
	buf []byte
}

// grow extends the buffer by n bytes and returns them for the caller to
// fill. Capacity at least doubles on every reallocation, so a snapshot
// written into a fresh buffer copies each byte about once more in total.
func (e *Encoder) grow(n int) []byte {
	l := len(e.buf)
	if cap(e.buf)-l < n {
		nb := make([]byte, l, max(2*cap(e.buf), l+n, 4096))
		copy(nb, e.buf)
		e.buf = nb
	}
	e.buf = e.buf[:l+n]
	return e.buf[l:]
}

// U64 appends v.
func (e *Encoder) U64(v uint64) { binary.LittleEndian.PutUint64(e.grow(8), v) }

// U32 appends v.
func (e *Encoder) U32(v uint32) { binary.LittleEndian.PutUint32(e.grow(4), v) }

// U8 appends v.
func (e *Encoder) U8(v uint8) { e.grow(1)[0] = v }

// I64 appends v as its two's-complement bits.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends v as a 64-bit integer.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends v as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends v's IEEE-754 bit pattern, preserving it exactly (including
// NaN payloads and signed zeros).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// U64s appends a length-prefixed slice.
func (e *Encoder) U64s(vs []uint64) {
	e.Int(len(vs))
	b := e.grow(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
}

// U8s appends a length-prefixed byte slice.
func (e *Encoder) U8s(vs []uint8) {
	e.Int(len(vs))
	copy(e.grow(len(vs)), vs)
}

// I64s appends a length-prefixed slice of signed integers.
func (e *Encoder) I64s(vs []int64) { I64sOf(e, vs) }

// F64s appends a length-prefixed slice of floats.
func (e *Encoder) F64s(vs []float64) {
	e.Int(len(vs))
	b := e.grow(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	copy(e.grow(len(s)), s)
}

// I64sOf appends a length-prefixed slice of integers of any width, each
// widened to 64 bits: the I64s encoding, read back with Decoder.I64s.
func I64sOf[T ~int | ~int8 | ~int16 | ~int32 | ~int64](e *Encoder, vs []T) {
	e.Int(len(vs))
	b := e.grow(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(v)))
	}
}

// U8sOf appends a length-prefixed slice of byte-sized values: the U8s
// encoding, read back with Decoder.U8s.
func U8sOf[T ~uint8](e *Encoder, vs []T) {
	e.Int(len(vs))
	b := e.grow(len(vs))
	for i, v := range vs {
		b[i] = uint8(v)
	}
}

// Decoder reads the primitives back with strict bounds checking. Errors are
// sticky: after the first failure every read returns the zero value, and
// Err/Finish report the original cause, so load code reads straight through
// and checks once.
type Decoder struct {
	buf     []byte
	off     int
	section string
	err     error
}

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes in the section. Callers
// decoding variable-length structures use it to bound allocations by the
// input that could actually back them.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: section %q: %s", d.section, fmt.Sprintf(format, args...))
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("need %d bytes at offset %d, have %d", n, d.off, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads one value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads one value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// I64 reads one signed value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads a 64-bit integer into an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads one byte, rejecting anything but 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool byte at offset %d", d.off-1)
		return false
	}
}

// F64 reads one float from its bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// sliceLen reads a length prefix and bounds it by the bytes remaining in
// the section (elemBytes per element), so a hostile length cannot force an
// allocation larger than the input itself.
func (d *Decoder) sliceLen(elemBytes int) int {
	n := d.I64()
	if d.err != nil {
		return 0
	}
	if n < 0 || n*int64(elemBytes) > int64(len(d.buf)-d.off) {
		d.fail("slice length %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// U64s reads a length-prefixed slice.
func (d *Decoder) U64s() []uint64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.U64()
	}
	return vs
}

// U8s reads a length-prefixed byte slice.
func (d *Decoder) U8s() []uint8 {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]uint8, n)
	copy(out, b)
	return out
}

// I64s reads a length-prefixed slice of signed integers.
func (d *Decoder) I64s() []int64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.I64()
	}
	return vs
}

// F64s reads a length-prefixed slice of floats.
func (d *Decoder) F64s() []float64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.F64()
	}
	return vs
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.sliceLen(1)
	if n == 0 {
		return ""
	}
	b := d.take(n)
	return string(b)
}

// Finish errors if the section has leftover bytes or a pending error.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snapshot: section %q: %d trailing bytes", d.section, len(d.buf)-d.off)
	}
	return nil
}
