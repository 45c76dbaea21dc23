// Package ckpt is the checkpoint wire format: a versioned, self-describing
// binary container for cycle-exact simulator state.
//
// A checkpoint is
//
//	magic "MDWCKPT1" | u32 CRC32-IEEE(body) | u64 len(body) | body
//
// where body is a sequence of named, length-prefixed sections:
//
//	u16 len(name) | name | u64 len(payload) | payload
//
// Section payloads are flat streams of little-endian primitives written by
// Enc and read back by Dec. Dec is a sticky-error, bounds-checked reader: a
// truncated or corrupted stream makes every subsequent read return zero
// values and Err() report the first failure — decoding never panics, which
// is what FuzzSnapshotRoundTrip asserts.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic identifies checkpoint files; the trailing digit is the format
// version. Decoders reject anything else.
const Magic = "MDWCKPT1"

// ErrCorrupt is wrapped by every decode failure, so callers can test any
// checkpoint-parsing error with errors.Is.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// corruptf builds an ErrCorrupt-wrapped error with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Enc appends little-endian primitives to a growing byte stream.
type Enc struct {
	b []byte
}

// Bytes returns the encoded stream.
func (e *Enc) Bytes() []byte { return e.b }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int (as int64).
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by its IEEE-754 bits, so values round-trip exactly.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes64 appends a length-prefixed byte slice.
func (e *Enc) Bytes64(v []byte) {
	e.U64(uint64(len(v)))
	e.b = append(e.b, v...)
}

// String appends a length-prefixed string.
func (e *Enc) String(v string) { e.Bytes64([]byte(v)) }

// Dec reads little-endian primitives from a byte stream with sticky-error
// semantics: after the first failure every read returns the zero value and
// Err() reports the failure. All reads are bounds-checked.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

// Fail records the first decode failure: a framing error or a semantic
// validation failure (an out-of-range value, a count mismatch against the
// live structure), both with the same sticky ErrCorrupt semantics.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// take returns the next n bytes, or nil after recording an error.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.Fail("need %d bytes at offset %d, have %d", n, d.off, d.Remaining())
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// Bool reads a bool; any byte other than 0 or 1 is a corruption error.
func (d *Dec) Bool() bool {
	switch v := d.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Fail("invalid bool byte %d", v)
		return false
	}
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int written by Enc.Int.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64 by bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads an element count and validates it against the remaining
// stream, assuming each element occupies at least elemMinBytes (use 1 for
// variable-size elements). This bounds the allocation a hostile count could
// otherwise trigger.
func (d *Dec) Count(elemMinBytes int) int {
	n := d.I64()
	if d.err != nil {
		return 0
	}
	if elemMinBytes < 1 {
		elemMinBytes = 1
	}
	if n < 0 || n > int64(d.Remaining()/elemMinBytes) {
		d.Fail("count %d exceeds remaining %d bytes (min %d/elem)", n, d.Remaining(), elemMinBytes)
		return 0
	}
	return int(n)
}

// Bytes64 reads a length-prefixed byte slice (copied out of the stream).
func (d *Dec) Bytes64() []byte {
	n := d.Count(1)
	s := d.take(n)
	if s == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, s)
	return out
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes64()) }

// Writer assembles named sections into a finished checkpoint blob.
type Writer struct {
	names []string
	secs  map[string]*Enc
}

// NewWriter returns an empty checkpoint writer.
func NewWriter() *Writer {
	return &Writer{secs: make(map[string]*Enc)}
}

// Section returns the encoder for a named section, creating it on first
// use. Sections are emitted in first-use order.
func (w *Writer) Section(name string) *Enc {
	if e, ok := w.secs[name]; ok {
		return e
	}
	e := &Enc{}
	w.secs[name] = e
	w.names = append(w.names, name)
	return e
}

// Finish assembles the checkpoint: magic, CRC and length of the body, then
// each section with its name and payload length.
func (w *Writer) Finish() []byte {
	var body Enc
	for _, name := range w.names {
		if len(name) > math.MaxUint16 {
			panic("ckpt: section name too long")
		}
		body.b = binary.LittleEndian.AppendUint16(body.b, uint16(len(name)))
		body.b = append(body.b, name...)
		body.Bytes64(w.secs[name].Bytes())
	}
	out := make([]byte, 0, len(Magic)+12+len(body.b))
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body.b))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body.b)))
	out = append(out, body.b...)
	return out
}

// Reader indexes a checkpoint blob by section name after validating magic,
// length, and checksum.
type Reader struct {
	secs map[string][]byte
}

// NewReader parses and validates a checkpoint blob.
func NewReader(b []byte) (*Reader, error) {
	if len(b) < len(Magic)+12 {
		return nil, corruptf("short header: %d bytes", len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, corruptf("bad magic %q", b[:len(Magic)])
	}
	sum := binary.LittleEndian.Uint32(b[len(Magic):])
	blen := binary.LittleEndian.Uint64(b[len(Magic)+4:])
	body := b[len(Magic)+12:]
	if blen != uint64(len(body)) {
		return nil, corruptf("body length %d, header says %d", len(body), blen)
	}
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, corruptf("checksum mismatch: %08x != %08x", got, sum)
	}
	r := &Reader{secs: make(map[string][]byte)}
	off := 0
	for off < len(body) {
		if len(body)-off < 2 {
			return nil, corruptf("truncated section name length")
		}
		nlen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if len(body)-off < nlen {
			return nil, corruptf("truncated section name")
		}
		name := string(body[off : off+nlen])
		off += nlen
		if len(body)-off < 8 {
			return nil, corruptf("truncated section %q length", name)
		}
		plen := binary.LittleEndian.Uint64(body[off:])
		off += 8
		if plen > uint64(len(body)-off) {
			return nil, corruptf("section %q claims %d bytes, %d remain", name, plen, len(body)-off)
		}
		if _, dup := r.secs[name]; dup {
			return nil, corruptf("duplicate section %q", name)
		}
		r.secs[name] = body[off : off+int(plen)]
		off += int(plen)
	}
	return r, nil
}

// Section returns a decoder for a named section, or an error if absent.
func (r *Reader) Section(name string) (*Dec, error) {
	b, ok := r.secs[name]
	if !ok {
		return nil, corruptf("missing section %q", name)
	}
	return NewDec(b), nil
}

// Has reports whether a section is present (for optional sections).
func (r *Reader) Has(name string) bool {
	_, ok := r.secs[name]
	return ok
}
