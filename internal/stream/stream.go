// Package stream implements the STREAM microbenchmark from the HPC
// Challenge suite (Dongarra et al.) that the paper's composed workload
// uses as its analytics component (§6.1): the Copy, Scale, Add, and Triad
// kernels with STREAM's standard result validation.
//
// The in situ example runs these kernels for real over data it copied out
// of an XEMEM attachment, exactly as the paper's analytics program does.
package stream

import (
	"fmt"
	"math"
)

// Arrays holds the three STREAM working arrays.
type Arrays struct {
	A, B, C []float64
	scalar  float64
}

// New allocates STREAM arrays of n elements with the standard initial
// values (a=1, b=2, c=0) and scalar 3.
func New(n int) *Arrays {
	s := &Arrays{A: make([]float64, n), B: make([]float64, n), C: make([]float64, n), scalar: 3}
	for i := 0; i < n; i++ {
		s.A[i] = 1
		s.B[i] = 2
	}
	return s
}

// Copy performs c[i] = a[i].
func (s *Arrays) Copy() {
	copy(s.C, s.A)
}

// Scale performs b[i] = scalar·c[i].
func (s *Arrays) Scale() {
	for i := range s.B {
		s.B[i] = s.scalar * s.C[i]
	}
}

// Add performs c[i] = a[i] + b[i].
func (s *Arrays) Add() {
	for i := range s.C {
		s.C[i] = s.A[i] + s.B[i]
	}
}

// Triad performs a[i] = b[i] + scalar·c[i].
func (s *Arrays) Triad() {
	for i := range s.A {
		s.A[i] = s.B[i] + s.scalar*s.C[i]
	}
}

// Run executes the four kernels in STREAM order for reps repetitions and
// validates the results.
func (s *Arrays) Run(reps int) error {
	for i := 0; i < reps; i++ {
		s.Copy()
		s.Scale()
		s.Add()
		s.Triad()
	}
	return s.Validate(reps)
}

// Validate checks the arrays against the analytically propagated values,
// as the reference STREAM implementation does.
func (s *Arrays) Validate(reps int) error {
	a, b, c := 1.0, 2.0, 0.0
	for i := 0; i < reps; i++ {
		c = a
		b = s.scalar * c
		c = a + b
		a = b + s.scalar*c
	}
	const eps = 1e-8
	for i, v := range s.A {
		if math.Abs(v-a) > eps*math.Abs(a) {
			return fmt.Errorf("stream: a[%d] = %g, want %g", i, v, a)
		}
	}
	for i, v := range s.B {
		if math.Abs(v-b) > eps*math.Abs(b) {
			return fmt.Errorf("stream: b[%d] = %g, want %g", i, v, b)
		}
	}
	for i, v := range s.C {
		if math.Abs(v-c) > eps*math.Abs(c) {
			return fmt.Errorf("stream: c[%d] = %g, want %g", i, v, c)
		}
	}
	return nil
}
