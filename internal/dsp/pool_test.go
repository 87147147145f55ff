package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestGetSliceZeroedAndSized(t *testing.T) {
	a := GetSlice(64)
	for i := range a {
		a[i] = math.Pi
	}
	PutSlice(a)
	b := GetSlice(32) // smaller request should reuse and be zeroed
	if len(b) != 32 {
		t.Fatalf("len = %d, want 32", len(b))
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %v", i, v)
		}
	}
	PutSlice(b)
	if got := GetSlice(0); len(got) != 0 {
		t.Fatalf("GetSlice(0) len = %d", len(got))
	}
}

func TestPutSliceEmptyIsSafe(t *testing.T) {
	PutSlice(nil)
	PutSlice([]float64{})
}

// TestConditionPooledMatchesReference pins the pooled implementations to a
// straightforward reference: pooling must never change numerics.
func TestConditionPooledMatchesReference(t *testing.T) {
	refMA := func(xs []float64, window int) []float64 {
		out := make([]float64, len(xs))
		if window <= 1 {
			copy(out, xs)
			return out
		}
		half := window / 2
		for i := range xs {
			lo, hi := i-half, i+half+1
			if lo < 0 {
				lo = 0
			}
			if hi > len(xs) {
				hi = len(xs)
			}
			var sum float64
			for _, x := range xs[lo:hi] {
				sum += x
			}
			out[i] = sum / float64(hi-lo)
		}
		return out
	}
	f := func(raw []float64, wRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		// Clamp to a physical range: the prefix-sum fast path and the
		// naive reference legitimately diverge near float64 overflow,
		// which no CSI amplitude approaches. Pooling is what's under test.
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			} else {
				raw[i] = math.Mod(v, 1e6)
			}
		}
		window := int(wRaw)%(len(raw)+2) + 1
		got := MovingAverage(raw, window)
		want := refMA(raw, window)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				return false
			}
		}
		// Interleave pool traffic, then recheck a second call.
		tmp := GetSlice(len(raw) + 7)
		PutSlice(tmp)
		again := MovingAverage(raw, window)
		for i := range again {
			if again[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkConditionTwoPassInto times the conditioning kernel alone. The
// frame-decode case is one channel of a 1000-bit frame at 100 bps and
// ~1000 pkt/s: 10,300 samples under the 400 ms (400-sample) window, on a
// weak sub-channel (random bits at ±0.3 under unit Gaussian noise), whose
// residual signs are as unpredictable as most of a frame's 90 channels.
func BenchmarkConditionTwoPassInto(b *testing.B) {
	smooth := make([]float64, 1000)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i) / 9)
	}
	rnd := rng.New(1)
	weak := make([]float64, 10300)
	level := 0.3
	for i := range weak {
		if i%10 == 0 && rnd.Bool() {
			level = -level
		}
		weak[i] = 10 + level + rnd.Gaussian(0, 1)
	}
	for _, c := range []struct {
		name   string
		xs     []float64
		window int
	}{
		{"n=1000/window=40", smooth, 40},
		{"frame-decode/n=10300/window=400", weak, 400},
	} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]float64, len(c.xs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConditionTwoPassInto(dst, c.xs, c.window)
			}
		})
	}
}
