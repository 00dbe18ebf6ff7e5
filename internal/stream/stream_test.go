package stream

import "testing"

func TestKernels(t *testing.T) {
	s := New(100)
	s.Copy()
	if s.C[50] != 1 {
		t.Fatalf("copy: c = %v", s.C[50])
	}
	s.Scale()
	if s.B[50] != 3 {
		t.Fatalf("scale: b = %v", s.B[50])
	}
	s.Add()
	if s.C[50] != 4 {
		t.Fatalf("add: c = %v", s.C[50])
	}
	s.Triad()
	if s.A[50] != 15 {
		t.Fatalf("triad: a = %v", s.A[50])
	}
}

func TestRunValidates(t *testing.T) {
	s := New(1000)
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := New(1000)
	s.Copy()
	s.Scale()
	s.Add()
	s.Triad()
	s.A[123] += 1
	if err := s.Validate(1); err == nil {
		t.Fatal("corruption not detected")
	}
}
