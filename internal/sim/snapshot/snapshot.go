// Package snapshot is the simulator's checkpoint codec: a versioned,
// deterministic binary image format for the state of a quiesced
// sim.World, plus the little-endian encoder the per-component savers
// build their sections with and the decoder Read parses images with.
//
// The package is deliberately pure: it imports nothing from the rest of
// the repository and knows nothing about worlds, actors, or memory. A
// snapshot Image is an ordered list of named byte sections — each
// produced by the component that owns the state (the world core, the
// physical-memory store, each enclave module, the fault injector) — plus
// a small header carrying the seed and the virtual-time cut the image
// was taken at. Integrity is a trailing SHA-256 over every preceding
// byte; Read verifies it before parsing anything, so a truncated or
// bit-flipped image yields ErrCorrupt and never a half-decoded
// structure.
//
// Determinism contract: encoders must emit canonical bytes — fixed-width
// little-endian integers, length-prefixed strings, and map contents
// collected and sorted before encoding (the snaporder analyzer in
// cmd/xemem-vet enforces the latter). Two encodings of equal state are
// then byte-identical, which is what lets a replay verify itself by
// re-encoding and comparing, and what makes the image hash a stable
// artifact to pin in repro bundles.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
)

// magic identifies a snapshot image; Version is the current format
// version. Decoders reject other versions with ErrVersion — the format
// is append-only within a version, never silently reinterpreted.
const (
	magic   = "XSNP"
	Version = 1
)

var (
	// ErrCorrupt reports an image whose bytes fail the integrity hash or
	// whose structure does not parse. No image is returned.
	ErrCorrupt = errors.New("snapshot: corrupt image")
	// ErrVersion reports an image written by an incompatible format
	// version. No image is returned.
	ErrVersion = errors.New("snapshot: unsupported version")
)

// Section is one named component payload of an image. Order is
// significant: sections appear in component registration order, which
// equals world construction order.
type Section struct {
	Name string
	Data []byte
}

// Image is one decoded (or to-be-encoded) world snapshot.
type Image struct {
	// Recipe names the builder that can reconstruct the world this image
	// was taken from; Params is the recipe's opaque parameter blob
	// (conventionally JSON). sim.World writes both empty: a repro bundle
	// carries its recipe beside the image hash.
	Recipe string
	Params []byte
	// Seed is the world's RNG seed; CutNs is the virtual time of the
	// checkpoint; Kind records the engine the checkpoint quiesced under
	// (always "serial" for images this tree writes).
	Seed  uint64
	CutNs int64
	Kind  string

	Sections []Section
}

// Section returns the named section's payload, or nil, false.
func (img *Image) Section(name string) ([]byte, bool) {
	for i := range img.Sections {
		if img.Sections[i].Name == name {
			return img.Sections[i].Data, true
		}
	}
	return nil, false
}

// Encode renders the image's canonical byte form, including the
// trailing integrity hash.
func (img *Image) Encode() []byte {
	var e Enc
	e.buf = append(e.buf, magic...)
	e.U16(Version)
	e.Str(img.Recipe)
	e.Blob(img.Params)
	e.U64(img.Seed)
	e.I64(img.CutNs)
	e.Str(img.Kind)
	e.U64(uint64(len(img.Sections)))
	for i := range img.Sections {
		e.Str(img.Sections[i].Name)
		e.Blob(img.Sections[i].Data)
	}
	sum := sha256.Sum256(e.buf)
	return append(e.buf, sum[:]...)
}

// WriteTo writes the canonical encoding to w.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(img.Encode())
	return int64(n), err
}

// Hash reports the image's integrity hash — the hex SHA-256 of the
// canonical encoding (everything before the trailer). It is the
// "snapshot hash" repro bundles pin.
func (img *Image) Hash() string {
	enc := img.Encode()
	return hex.EncodeToString(enc[len(enc)-sha256.Size:])
}

// Read decodes an image from r. The trailing hash is verified before
// any structure is parsed, so a damaged image fails atomically: the
// caller either gets a fully valid *Image or an error wrapping
// ErrCorrupt/ErrVersion, never a partial decode.
func Read(r io.Reader) (*Image, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return Decode(buf)
}

// Decode is Read over an in-memory encoding.
func Decode(buf []byte) (*Image, error) {
	if len(buf) < len(magic)+2+sha256.Size {
		return nil, fmt.Errorf("%w: image too short (%d bytes)", ErrCorrupt, len(buf))
	}
	if string(buf[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(buf[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w: image version %d, decoder supports %d", ErrVersion, v, Version)
	}
	body, trailer := buf[:len(buf)-sha256.Size], buf[len(buf)-sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("%w: integrity hash mismatch", ErrCorrupt)
	}
	d := NewDec(body[len(magic)+2:])
	img := &Image{}
	img.Recipe = d.Str()
	img.Params = d.Blob()
	img.Seed = d.U64()
	img.CutNs = d.I64()
	img.Kind = d.Str()
	n := d.U64()
	if d.Err() == nil && n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: section count %d exceeds payload", ErrCorrupt, n)
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		img.Sections = append(img.Sections, Section{Name: d.Str(), Data: d.Blob()})
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after sections", ErrCorrupt, d.Remaining())
	}
	return img, nil
}

// --- primitive encoder ---------------------------------------------------

// Enc accumulates a canonical binary encoding: fixed-width little-endian
// integers and length-prefixed byte strings. The zero value is ready to
// use.
type Enc struct {
	buf []byte
}

// Data returns the bytes encoded so far. The slice aliases the
// encoder's buffer.
func (e *Enc) Data() []byte { return e.buf }

// U16 appends a fixed-width little-endian uint16.
func (e *Enc) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a fixed-width little-endian int64 (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 bit pattern (bit-exact round trip).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte string.
func (e *Enc) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// --- primitive decoder ---------------------------------------------------

// Dec consumes an Enc encoding. It is error-sticky: the first underflow
// or bound violation latches an ErrCorrupt-wrapping error, every
// subsequent read returns zero values, and the caller checks Err once
// at the end. Decoders therefore never panic on damaged input.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Err reports the first decode error, nil if none so far.
func (d *Dec) Err() error { return d.err }

// Remaining reports the number of unconsumed bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U16 consumes a uint16.
func (d *Dec) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U64 consumes a uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 consumes an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 consumes an IEEE-754 float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool consumes one byte; any value other than 0 or 1 is corrupt.
func (d *Dec) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool byte %#x", b[0])
		return false
	}
}

// Str consumes a length-prefixed string. The length is bounded by the
// remaining payload, so damaged prefixes cannot trigger huge
// allocations.
func (d *Dec) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds remaining %d", n, d.Remaining())
		return ""
	}
	return string(d.take(int(n)))
}

// Blob consumes a length-prefixed byte string (copied, so the result
// does not alias the input buffer).
func (d *Dec) Blob() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("blob length %d exceeds remaining %d", n, d.Remaining())
		return nil
	}
	return append([]byte(nil), d.take(int(n))...)
}
