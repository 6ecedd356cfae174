// Package ckpt implements the simulator's checkpoint wire format: a
// versioned, deterministic binary encoding built from named sections,
// each framed with an explicit payload length and a CRC32 so corrupt or
// truncated files are rejected before any state is applied.
//
// Layout (all integers little-endian):
//
//	magic   "WLCK" (4 bytes)
//	version uint32
//	repeated sections:
//	    nameLen uint16
//	    name    nameLen bytes
//	    payLen  uint64
//	    payload payLen bytes
//	    crc32   uint32   (IEEE, over payload only)
//
// Sections appear in a fixed order chosen by the writer; the reader asks
// for each section by name and fails on any mismatch, so a reordered or
// spliced file cannot partially apply. Determinism rules: every field is
// written in declared order, and map contents must be emitted under a
// sorted key order (use KeysU64) — the no-ckpt-map-order
// wlvet rule enforces this for code in this package and in SaveState
// methods.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

// ErrBadCheckpoint reports a checkpoint image that cannot be decoded:
// bad magic, wrong format version, CRC mismatch, truncation, or a
// section/field layout the reader did not expect. Every decode failure
// in this package wraps it, so callers can classify restore errors with
// errors.Is(err, ErrBadCheckpoint) instead of matching message text.
var ErrBadCheckpoint = errors.New("bad checkpoint image")

// Version is the on-disk format version. Bump it whenever any section's
// field layout changes; old files are then rejected up front instead of
// being misread (see EXPERIMENTS.md § Checkpoint format for the policy).
// Version 2: the device section switched to bitset/sparse-index failure
// tracking and the reviver section to the flat shadow-node arena.
const Version = 2

var magic = [4]byte{'W', 'L', 'C', 'K'}

// maxSectionName bounds section names; anything longer indicates a
// corrupt frame rather than a real section.
const maxSectionName = 256

// Encoder builds a checkpoint image in memory. Writes never fail;
// Finish returns the complete framed byte stream. Field-writing methods
// panic if called outside a Begin/End section pair — that is a
// programming error, not a runtime condition.
type Encoder struct {
	buf    []byte
	inSec  bool
	lenOff int // offset of the open section's payLen field
	payOff int // offset where the open section's payload starts
}

// NewEncoder returns an encoder with the magic and version header
// already written.
func NewEncoder() *Encoder {
	e := &Encoder{buf: make([]byte, 0, 1024)}
	e.buf = append(e.buf, magic[:]...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, Version)
	return e
}

// Begin opens a named section. Sections must not nest.
func (e *Encoder) Begin(name string) {
	if e.inSec {
		panic("ckpt: Begin inside an open section")
	}
	if len(name) == 0 || len(name) > maxSectionName {
		panic("ckpt: bad section name length")
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(name)))
	e.buf = append(e.buf, name...)
	e.lenOff = len(e.buf)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, 0) // patched in End
	e.payOff = len(e.buf)
	e.inSec = true
}

// End closes the open section, patching its length and appending the
// payload CRC.
func (e *Encoder) End() {
	if !e.inSec {
		panic("ckpt: End without Begin")
	}
	payload := e.buf[e.payOff:]
	binary.LittleEndian.PutUint64(e.buf[e.lenOff:], uint64(len(payload)))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(payload))
	e.inSec = false
}

// Finish returns the completed checkpoint image.
func (e *Encoder) Finish() []byte {
	if e.inSec {
		panic("ckpt: Finish with an open section")
	}
	return e.buf
}

func (e *Encoder) need() {
	if !e.inSec {
		panic("ckpt: field write outside a section")
	}
}

// alloc extends the buffer by n bytes in one step and returns the region
// to fill. Bulk array writers stream elements straight into it, so a
// paper-scale section costs one (amortized) growth instead of per-element
// append checks and no intermediate []byte staging.
func (e *Encoder) alloc(n int) []byte {
	e.need()
	if cap(e.buf)-len(e.buf) < n {
		grown := make([]byte, len(e.buf), len(e.buf)+n+len(e.buf)/2)
		copy(grown, e.buf)
		e.buf = grown
	}
	off := len(e.buf)
	e.buf = e.buf[:off+n]
	return e.buf[off : off+n]
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.need(); e.buf = append(e.buf, v) }

// U16 writes a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.need(); e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.need(); e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.need(); e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 writes a signed integer as its two's-complement uint64 image.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bool writes a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	b := uint8(0)
	if v {
		b = 1
	}
	e.U8(b)
}

// F64 writes a float64 as its IEEE-754 bit image.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.need()
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s writes a count-prefixed []uint64.
func (e *Encoder) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	b := e.alloc(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], x)
	}
}

// U32s writes a count-prefixed []uint32.
func (e *Encoder) U32s(v []uint32) {
	e.U32(uint32(len(v)))
	b := e.alloc(4 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], x)
	}
}

// U16s writes a count-prefixed []uint16.
func (e *Encoder) U16s(v []uint16) {
	e.U32(uint32(len(v)))
	b := e.alloc(2 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint16(b[i*2:], x)
	}
}

// I32s writes a count-prefixed []int32.
func (e *Encoder) I32s(v []int32) {
	e.U32(uint32(len(v)))
	b := e.alloc(4 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(x))
	}
}

// F64s writes a count-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.U32(uint32(len(v)))
	b := e.alloc(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
	}
}

// Bools writes a count-prefixed []bool, one byte per element.
func (e *Encoder) Bools(v []bool) {
	e.U32(uint32(len(v)))
	b := e.alloc(len(v))
	for i, x := range v {
		if x {
			b[i] = 1
		} else {
			b[i] = 0
		}
	}
}

// MapU64 writes a map[uint64]uint64 as a count followed by key/value
// pairs in ascending key order.
func (e *Encoder) MapU64(m map[uint64]uint64) {
	keys := KeysU64(m)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.U64(k)
		e.U64(m[k])
	}
}

// SetU64 writes a map[uint64]struct{} as a sorted count-prefixed key list.
func (e *Encoder) SetU64(m map[uint64]struct{}) {
	e.U64s(KeysU64(m))
}

// KeysU64 returns m's keys sorted ascending — the required iteration
// order for serializing any uint64-keyed map.
func KeysU64[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Decoder reads a checkpoint image section by section. All read methods
// share one sticky error: after the first failure every subsequent read
// returns the zero value, so callers can decode a full section and check
// Err once. A decoder never applies partial state itself — callers must
// check Err (or use the sim package's restore wrappers, which do) before
// trusting any decoded value.
type Decoder struct {
	buf     []byte
	off     int    // read position in buf (between sections)
	sec     []byte // payload of the open section
	secOff  int    // read position inside sec
	secName string
	err     error
}

// NewDecoder validates the header and returns a decoder positioned at
// the first section.
func NewDecoder(data []byte) (*Decoder, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("ckpt: truncated header (%d bytes): %w", len(data), ErrBadCheckpoint)
	}
	if string(data[:4]) != string(magic[:]) {
		return nil, fmt.Errorf("ckpt: bad magic %q: %w", data[:4], ErrBadCheckpoint)
	}
	v := binary.LittleEndian.Uint32(data[4:])
	if v != Version {
		return nil, fmt.Errorf("ckpt: version %d, want %d: %w", v, Version, ErrBadCheckpoint)
	}
	return &Decoder{buf: data, off: 8}, nil
}

// fail records the first error, wrapping ErrBadCheckpoint.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format+": %w", append(args, ErrBadCheckpoint)...)
	}
}

// Err returns the sticky error, if any.
func (d *Decoder) Err() error { return d.err }

// Section advances to the next section, which must have the given name.
// The previous section must have been fully consumed; the new section's
// CRC is verified before any field can be read.
func (d *Decoder) Section(name string) error {
	if d.err != nil {
		return d.err
	}
	if d.sec != nil && d.secOff != len(d.sec) {
		d.fail("section %q: %d bytes left unread", d.secName, len(d.sec)-d.secOff)
		return d.err
	}
	if d.off+2 > len(d.buf) {
		d.fail("truncated before section %q", name)
		return d.err
	}
	nameLen := int(binary.LittleEndian.Uint16(d.buf[d.off:]))
	d.off += 2
	if nameLen == 0 || nameLen > maxSectionName || d.off+nameLen > len(d.buf) {
		d.fail("bad section name frame before %q", name)
		return d.err
	}
	got := string(d.buf[d.off : d.off+nameLen])
	d.off += nameLen
	if got != name {
		d.fail("section %q, want %q", got, name)
		return d.err
	}
	if d.off+8 > len(d.buf) {
		d.fail("section %q: truncated length", name)
		return d.err
	}
	payLen := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	if payLen > uint64(len(d.buf)-d.off) {
		d.fail("section %q: payload length %d exceeds remaining %d", name, payLen, len(d.buf)-d.off)
		return d.err
	}
	payload := d.buf[d.off : d.off+int(payLen)]
	d.off += int(payLen)
	if d.off+4 > len(d.buf) {
		d.fail("section %q: truncated CRC", name)
		return d.err
	}
	want := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	if got := crc32.ChecksumIEEE(payload); got != want {
		d.fail("section %q: CRC mismatch (got %08x, want %08x)", name, got, want)
		return d.err
	}
	d.sec, d.secOff, d.secName = payload, 0, name
	return nil
}

// SkipRest discards any unread bytes of the open section, so the next
// Section call succeeds. Used when a section's content is knowingly
// ignored (e.g. restoring without an observer attached).
func (d *Decoder) SkipRest() {
	if d.err == nil && d.sec != nil {
		d.secOff = len(d.sec)
	}
}

// Close verifies the whole image was consumed: no sticky error, the last
// section fully read, and no trailing sections or garbage bytes.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.sec != nil && d.secOff != len(d.sec) {
		d.fail("section %q: %d bytes left unread", d.secName, len(d.sec)-d.secOff)
		return d.err
	}
	if d.off != len(d.buf) {
		d.fail("%d trailing bytes after last section", len(d.buf)-d.off)
		return d.err
	}
	return nil
}

// take returns n payload bytes, or nil after recording an error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.sec == nil {
		d.fail("field read outside a section")
		return nil
	}
	if n < 0 || d.secOff+n > len(d.sec) {
		d.fail("section %q: read of %d bytes overruns payload", d.secName, n)
		return nil
	}
	b := d.sec[d.secOff : d.secOff+n]
	d.secOff += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed integer written by Encoder.I64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads a bool; any byte other than 0 or 1 is an error.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("section %q: bad bool byte", d.secName)
		return false
	}
}

// F64 reads a float64 bit image.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := int(d.U32())
	b := d.take(n)
	return string(b)
}

// Count reads an element count and validates it against the bytes still
// available in the section, at no fewer than minElemBytes per element:
// the guard that keeps a corrupt count from turning into a huge
// allocation. A count that cannot fit records the sticky error and
// reads as 0, so callers may size an allocation from it before checking
// Err.
func (d *Decoder) Count(minElemBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n*minElemBytes > len(d.sec)-d.secOff {
		d.fail("section %q: count %d exceeds payload", d.secName, n)
		return 0
	}
	return n
}

// U64s reads a count-prefixed []uint64.
func (d *Decoder) U64s() []uint64 {
	n := d.Count(8)
	if d.err != nil {
		return nil
	}
	v := make([]uint64, n)
	d.u64sFill(v)
	return v
}

// U64sInto reads a count-prefixed []uint64 written by Encoder.U64s
// directly into dst, whose length must equal the stored count. Large
// restores (wear arrays, bitsets, chain arenas) decode in place with no
// transient slice.
func (d *Decoder) U64sInto(dst []uint64) {
	n := d.Count(8)
	if d.err != nil {
		return
	}
	if n != len(dst) {
		d.fail("section %q: array count %d, want %d", d.secName, n, len(dst))
		return
	}
	d.u64sFill(dst)
}

func (d *Decoder) u64sFill(dst []uint64) {
	b := d.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
}

// U32s reads a count-prefixed []uint32.
func (d *Decoder) U32s() []uint32 {
	n := d.Count(4)
	b := d.take(4 * n)
	if d.err != nil {
		return nil
	}
	v := make([]uint32, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return v
}

// U16s reads a count-prefixed []uint16.
func (d *Decoder) U16s() []uint16 {
	n := d.Count(2)
	b := d.take(2 * n)
	if d.err != nil {
		return nil
	}
	v := make([]uint16, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint16(b[i*2:])
	}
	return v
}

// I32s reads a count-prefixed []int32.
func (d *Decoder) I32s() []int32 {
	n := d.Count(4)
	b := d.take(4 * n)
	if d.err != nil {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return v
}

// F64s reads a count-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	n := d.Count(8)
	b := d.take(8 * n)
	if d.err != nil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return v
}

// Bools reads a count-prefixed []bool.
func (d *Decoder) Bools() []bool {
	n := d.Count(1)
	if d.err != nil {
		return nil
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = d.Bool()
	}
	return v
}

// MapU64 reads a map written by Encoder.MapU64. Keys must be strictly
// ascending (the writer's sorted order); anything else is corruption.
func (d *Decoder) MapU64() map[uint64]uint64 {
	n := d.Count(16)
	if d.err != nil {
		return nil
	}
	m := make(map[uint64]uint64, n)
	var prev uint64
	for i := 0; i < n; i++ {
		k := d.U64()
		v := d.U64()
		if d.err != nil {
			return nil
		}
		if i > 0 && k <= prev {
			d.fail("section %q: map keys out of order", d.secName)
			return nil
		}
		prev = k
		m[k] = v
	}
	return m
}

// SetU64 reads a set written by Encoder.SetU64.
func (d *Decoder) SetU64() map[uint64]struct{} {
	keys := d.U64s()
	if d.err != nil {
		return nil
	}
	m := make(map[uint64]struct{}, len(keys))
	for i, k := range keys {
		if i > 0 && k <= keys[i-1] {
			d.fail("section %q: set keys out of order", d.secName)
			return nil
		}
		m[k] = struct{}{}
	}
	return m
}
