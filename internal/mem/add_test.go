package mem

import (
	"bytes"
	"math/rand"
	"testing"

	"xemem/internal/extent"
)

// addBytesRef is the byte-at-a-time add addBytes must match.
func addBytesRef(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// checkAddBytes runs addBytes and the reference on copies of dst and
// src and fails on the first differing byte.
func checkAddBytes(t *testing.T, dst, src []byte) {
	t.Helper()
	got := append([]byte(nil), dst...)
	want := append([]byte(nil), dst...)
	addBytes(got, src)
	addBytesRef(want, src)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("len %d: byte %d = %#x, want %#x (dst %#x + src %#x)", len(dst), i, got[i], want[i], dst[i], src[i])
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// laneFills are byte values whose sums carry out of bit 6 or bit 7 —
// where a word-wide add would leak a carry into the neighbouring lane.
var laneFills = []byte{0x00, 0x01, 0x7f, 0x80, 0x81, 0xfe, 0xff}

// TestAddBytesMatchesByteLoop checks the eight-lane sum against the
// byte loop at every length 0–130, on sub-slices starting at every
// offset mod 8 (so words straddle the backing array's alignment), over
// random bytes and over every pair of carry-heavy lane fills.
func TestAddBytesMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const maxLen = 130
	for n := 0; n <= maxLen; n++ {
		for start := 0; start < 8; start++ {
			dbuf := make([]byte, start+n)
			sbuf := make([]byte, 8+n)
			dst, src := dbuf[start:], sbuf[(start+3)%8:][:n]
			rng.Read(dst)
			rng.Read(src)
			checkAddBytes(t, dst, src)
			for _, a := range laneFills {
				for _, b := range laneFills {
					for i := range dst {
						dst[i], src[i] = a, b
					}
					checkAddBytes(t, dst, src)
				}
			}
		}
	}
	// Alternating lanes: a carry out of one lane must not reach the
	// next, whatever that lane holds.
	for _, pat := range [][2]byte{{0xff, 0x00}, {0x80, 0x7f}, {0x7f, 0x80}, {0xff, 0x01}} {
		dst := make([]byte, 64)
		src := make([]byte, 64)
		for i := range dst {
			dst[i] = pat[i%2]
			src[i] = pat[(i/2)%2]
		}
		checkAddBytes(t, dst, src)
	}
}

// FuzzAddBytes explores beyond the table: dst is the fuzzed bytes from
// off, src is the same bytes rotated by rot, so lengths, alignments and
// lane contents all vary.
func FuzzAddBytes(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 17), uint8(1), uint8(3))
	f.Add(bytes.Repeat([]byte{0x80}, 24), uint8(0), uint8(8))
	f.Add(bytes.Repeat([]byte{0x7f, 0x80}, 33), uint8(5), uint8(1))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), uint8(7), uint8(13))
	f.Fuzz(func(t *testing.T, data []byte, off, rot uint8) {
		o := int(off) % 8
		if o > len(data) {
			o = len(data)
		}
		dst := data[o:]
		src := make([]byte, len(dst))
		for i := range src {
			src[i] = dst[(i+int(rot))%len(dst)]
		}
		checkAddBytes(t, dst, src)
	})
}

// TestAccessAddInPlace checks OpAdd on physical memory across a page
// boundary: an add into never-written frames stores the operand (a fresh
// frame is zero), and a second add sums byte-wise mod 256.
func TestAccessAddInPlace(t *testing.T) {
	m := newTestMem()
	a, _ := m.Zone(0).AllocContigAligned(3, 1)
	l := extent.FromExtents(a)
	p := bytes.Repeat([]byte{0x81, 0x7f, 0x01}, 100)
	off := uint64(PageSize - 150)
	for round := 1; round <= 2; round++ {
		if err := m.Access(l, off, p, OpAdd); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(p))
		if err := m.ReadAt(l, off, got); err != nil {
			t.Fatal(err)
		}
		for i := range p {
			if want := byte(round) * p[i]; got[i] != want {
				t.Fatalf("round %d: byte %d = %#x, want %#x", round, i, got[i], want)
			}
		}
	}
	if m.Materialized(a.First + 2) {
		t.Fatal("an add materialized a frame it does not touch")
	}
}
