package memocache

import "testing"

// TestSampler: a zero seed takes the default, equal seeds sample equally
// (so a run's checked steps are a function of its seed), the sampled share
// tracks the fraction, and fractions at the bounds decide without
// advancing the stream.
func TestSampler(t *testing.T) {
	if NewSampler(0) != NewSampler(defaultSeed) {
		t.Fatal("zero seed does not take the default")
	}
	a, b := NewSampler(7), NewSampler(7)
	hits := 0
	for i := 0; i < 1000; i++ {
		da, db := a.Due(0.25), b.Due(0.25)
		if da != db {
			t.Fatalf("equal seeds diverged at draw %d", i)
		}
		if da {
			hits++
		}
	}
	if hits < 150 || hits > 350 {
		t.Errorf("fraction 0.25 sampled %d of 1000", hits)
	}
	s := a
	if s.Due(0) || !s.Due(1) || s != a {
		t.Error("fractions 0 and 1 must decide without advancing the stream")
	}
}
