package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"testing"

	"xemem/internal/sim/snapshot"
)

// dispatchDigest is an Observer that hashes every dispatch (actor name
// and time) into a running digest of the run. It also exports that
// digest as its snapshot watermark, like trace.Tracer does.
type dispatchDigest struct {
	h hash.Hash
}

func newDispatchDigest() *dispatchDigest { return &dispatchDigest{h: sha256.New()} }

func (d *dispatchDigest) Span(*Actor, string, Time, Time)                             {}
func (d *dispatchDigest) AcquireRes(*Resource, *Actor, string, Time, Time, Time, int) {}
func (d *dispatchDigest) QueueWait(string, *Actor, Time, Time, int)                   {}
func (d *dispatchDigest) Count(string, *Actor, Time)                                  {}

func (d *dispatchDigest) Dispatch(a *Actor, t Time) {
	d.h.Write([]byte(a.name))
	d.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(t)))
}

func (d *dispatchDigest) SnapshotWatermark() []byte { return d.h.Sum(nil) }

// hashRun runs mixedWorkload under a dispatchDigest with two registered
// components whose payloads are comps, one byte per bool. When cut is
// non-negative it arms a checkpoint there and returns the state hash
// taken at it. It also returns the run's dispatch digest.
func hashRun(t *testing.T, seed uint64, cut Time, comps [2][]bool) (snap string, run [sha256.Size]byte) {
	t.Helper()
	w := NewWorld(seed)
	obs := newDispatchDigest()
	w.SetObserver(obs)
	mixedWorkload(w)
	for i, name := range []string{"test/a", "test/b"} {
		payload := comps[i]
		w.AddSnapshotComponent(name, func(e *snapshot.Enc) {
			for _, b := range payload {
				e.Bool(b)
			}
		})
	}
	if cut >= 0 {
		w.SetCheckpoint(cut, func() { snap = w.SnapshotHash() })
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if cut >= 0 && snap == "" {
		t.Fatal("checkpoint never fired")
	}
	copy(run[:], obs.h.Sum(nil))
	return snap, run
}

// TestSnapshotHash pins what the state hash covers: it is a pure
// function of the world at the cut, it moves with the cut, the seed and
// any registered component's bytes, and taking it never perturbs the
// run.
func TestSnapshotHash(t *testing.T) {
	const cut = 2 * Microsecond
	comps := [2][]bool{{true, false}, {true}}
	base, baseRun := hashRun(t, 7, cut, comps)
	if len(base) != 2*sha256.Size {
		t.Fatalf("hash %q is not hex SHA-256", base)
	}

	if again, _ := hashRun(t, 7, cut, comps); again != base {
		t.Errorf("same world at the same cut: %s vs %s", again, base)
	}
	for name, got := range map[string]string{
		"cut":        first(hashRun(t, 7, cut+Nanosecond, comps)),
		"seed":       first(hashRun(t, 8, cut, comps)),
		"extra byte": first(hashRun(t, 7, cut, [2][]bool{{true, false}, {true, false}})),
	} {
		if got == base {
			t.Errorf("a different %s left the hash at %s", name, base)
		}
	}

	if _, unarmed := hashRun(t, 7, -1, comps); unarmed != baseRun {
		t.Error("arming the checkpoint moved the run's dispatch digest")
	}
}

func first(s string, _ [sha256.Size]byte) string { return s }
