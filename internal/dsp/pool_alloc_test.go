//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; this assertion only runs in the plain test pass (the
// Makefile's `test` and `bench-stream` targets, not `race`).

package dsp

import "testing"

// TestPoolRoundTripAllocs pins the pool's memory contract: once a buffer
// and its box are in circulation, a GetSlice/PutSlice round trip is
// allocation-free. Boxing a fresh *[]float64 per PutSlice would count one
// allocation per run here.
func TestPoolRoundTripAllocs(t *testing.T) {
	const n = 4096
	PutSlice(GetSlice(n))
	allocs := testing.AllocsPerRun(100, func() {
		s := GetSlice(n)
		s[n-1] = 1
		PutSlice(s)
	})
	if allocs != 0 {
		t.Errorf("warmed GetSlice/PutSlice round trip allocates %.1f times, want 0", allocs)
	}
}
