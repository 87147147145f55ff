//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; this assertion only runs in the plain test pass (the
// Makefile's `test` and `bench-sim` targets, not `race`).

package radio

import "testing"

// TestObserveIntoAllocs pins the measurement path's memory contract: once
// the channel is built, observing into a caller-owned buffer allocates
// nothing, whichever tags reflect and whether or not the taps evolve.
func TestObserveIntoAllocs(t *testing.T) {
	c := buildOracleChannel(t, DefaultChannelConfig(), 2, 3)
	h := make([][]complex128, c.Antennas())
	for a := range h {
		h[a] = make([]complex128, c.Subchannels())
	}
	states := [][]bool{{true, false}, {false, true}, {true, true}, {false, false}}
	if err := c.ObserveInto(h, 0, states[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if err := c.ObserveInto(h, float64(i/2)*1e-3, states[i%len(states)]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ObserveInto allocates %v times per call, want 0", allocs)
	}
}
