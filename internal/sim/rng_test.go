package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 identical values across different seeds", same)
	}
}

func TestUint64nRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := NewRNG(seed)
		v := r.Uint64n(n)
		return v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(7)
	n := 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		ss += v * v
	}
	mean := sum / float64(n)
	variance := ss/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exp mean = %v, want ~1", mean)
	}
}

func TestNormalTruncatesAtZero(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if v := r.Normal(0.1, 10); v < 0 {
			t.Fatalf("Normal returned negative %v", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		d := Time(1000000)
		v := r.Jitter(d, 0.25)
		return v >= 750000 && v <= 1250000
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
	// Sample stddev of that classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := s.Stddev(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", got, want)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Stddev() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000s"},
		{-1500, "-1.500us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestCopyTime(t *testing.T) {
	if got := CopyTime(1000, 1e9); got != 1000 {
		t.Fatalf("CopyTime = %v, want 1000ns", got)
	}
	if got := CopyTime(0, 1e9); got != 0 {
		t.Fatalf("CopyTime(0) = %v", got)
	}
	if got := CopyTime(100, 0); got != 0 {
		t.Fatalf("CopyTime(bw=0) = %v", got)
	}
}

func TestPerSecond(t *testing.T) {
	if got := PerSecond(13e9, Second); got != 13e9 {
		t.Fatalf("PerSecond = %v", got)
	}
	if got := PerSecond(1, 0); got != 0 {
		t.Fatalf("PerSecond(d=0) = %v", got)
	}
}
