package snapshot

import (
	"bytes"
	"math"
	"testing"
)

// TestEncLayout pins the byte layout every snapshot saver relies on:
// fixed-width little-endian integers, IEEE-754 float bits, one-byte
// bools, and u64 length prefixes on strings and blobs.
func TestEncLayout(t *testing.T) {
	var e Enc
	if e.Data() != nil {
		t.Fatalf("zero Enc holds %d bytes", len(e.Data()))
	}
	e.U64(0x0102030405060708)
	e.I64(-2)
	e.F64(math.Inf(-1))
	e.Bool(true)
	e.Bool(false)
	e.Str("hi")
	e.Blob([]byte{0xab})
	e.Blob(nil)
	want := []byte{
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xff,
		0x01,
		0x00,
		0x02, 0, 0, 0, 0, 0, 0, 0, 'h', 'i',
		0x01, 0, 0, 0, 0, 0, 0, 0, 0xab,
		0x00, 0, 0, 0, 0, 0, 0, 0,
	}
	if got := e.Data(); !bytes.Equal(got, want) {
		t.Fatalf("encoding\n got  % x\n want % x", got, want)
	}
}
