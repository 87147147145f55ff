package dsp

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestMovingAverageConstantSeries(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5}
	got := MovingAverage(xs, 3)
	for i, v := range got {
		if v != 5 {
			t.Errorf("MovingAverage of constant series at %d = %v, want 5", i, v)
		}
	}
}

func TestMovingAverageWindowOne(t *testing.T) {
	xs := []float64{1, 2, 3}
	got := MovingAverage(xs, 1)
	for i := range xs {
		if got[i] != xs[i] {
			t.Errorf("window 1 should copy input, got %v", got)
		}
	}
	// Must be a copy, not the same backing array.
	got[0] = 99
	if xs[0] == 99 {
		t.Error("MovingAverage(x, 1) aliases input")
	}
}

func TestMovingAverageCentered(t *testing.T) {
	xs := []float64{0, 0, 9, 0, 0}
	got := MovingAverage(xs, 3)
	want := []float64{0, 3, 3, 3, 0}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRemoveTrendKillsSlowDrift(t *testing.T) {
	// A slow linear drift with a fast ±1 square wave on top: detrending
	// should leave approximately the square wave.
	n := 400
	xs := make([]float64, n)
	for i := range xs {
		drift := 0.001 * float64(i)
		sq := 1.0
		if (i/4)%2 == 1 {
			sq = -1
		}
		xs[i] = 10 + drift + sq
	}
	resid := RemoveTrend(xs, 80)
	// Interior residual mean should be ~0 and magnitude ~1.
	inner := resid[50 : n-50]
	if m := Mean(inner); math.Abs(m) > 0.05 {
		t.Errorf("residual mean = %v, want ~0", m)
	}
	if ma := MeanAbs(inner); math.Abs(ma-1) > 0.1 {
		t.Errorf("residual mean abs = %v, want ~1", ma)
	}
}

func TestNormalizeMapsLevels(t *testing.T) {
	xs := []float64{0.2, -0.2, 0.2, -0.2}
	got := Normalize(xs)
	want := []float64{1, -1, 1, -1}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNormalizeZeroSeries(t *testing.T) {
	got := Normalize([]float64{0, 0, 0})
	for _, v := range got {
		if v != 0 {
			t.Errorf("Normalize of zeros = %v", got)
		}
	}
}

func TestNormalizeUnitMeanAbsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e50 {
				xs = append(xs, x)
			}
		}
		out := Normalize(xs)
		if MeanAbs(xs) == 0 {
			return true
		}
		return almostEqual(MeanAbs(out), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConditionSquareWave(t *testing.T) {
	// Square wave riding on a big offset: Condition should recover ±1.
	n := 200
	xs := make([]float64, n)
	for i := range xs {
		v := 100.0
		if (i/5)%2 == 0 {
			v += 0.3
		} else {
			v -= 0.3
		}
		xs[i] = v
	}
	out := Condition(xs, 40)
	// Check interior samples are near ±1 with the right sign.
	errs := 0
	for i := 30; i < n-30; i++ {
		want := 1.0
		if (i/5)%2 == 1 {
			want = -1
		}
		if math.Signbit(out[i]) != math.Signbit(want) {
			errs++
		}
	}
	if errs > 3 {
		t.Errorf("Condition misrecovered %d interior samples", errs)
	}
}

func TestMovingAverageLengthProperty(t *testing.T) {
	f := func(xs []float64, w uint8) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		return len(MovingAverage(xs, int(w))) == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConditionTwoPassUnbalancedRuns(t *testing.T) {
	// A payload with long same-bit runs: the plain moving average
	// crushes runs toward zero; the decision-directed pass must keep
	// them near ±1.
	n := 400
	xs := make([]float64, n)
	level := func(i int) float64 {
		// 10-sample bits; bits 12..20 are a long run of ones.
		bit := (i / 10) % 40
		if bit >= 12 && bit <= 20 {
			return 1
		}
		if bit%2 == 0 {
			return 1
		}
		return 0
	}
	for i := range xs {
		xs[i] = 10 + 0.5*level(i)
	}
	out := ConditionTwoPass(xs, 80)
	// Samples inside the long run (bits 14..18, away from edges) must
	// stay clearly positive.
	bad := 0
	for i := 145; i < 185; i++ {
		if out[i] < 0.3 {
			bad++
		}
	}
	if bad > 4 {
		t.Errorf("two-pass conditioning lost %d/40 long-run samples", bad)
	}
	// And single-pass should demonstrably struggle there (the reason the
	// two-pass exists).
	single := Condition(xs, 80)
	worse := 0
	for i := 145; i < 185; i++ {
		if single[i] < 0.3 {
			worse++
		}
	}
	if worse <= bad {
		t.Logf("single-pass run samples lost: %d, two-pass: %d", worse, bad)
	}
}

func TestConditionTwoPassZeroSeries(t *testing.T) {
	out := ConditionTwoPass([]float64{5, 5, 5, 5}, 2)
	for _, v := range out {
		if v != 0 {
			t.Errorf("constant series should condition to zeros, got %v", out)
		}
	}
}

func TestConditionTwoPassMatchesSinglePassOnBalanced(t *testing.T) {
	// For a perfectly balanced alternating signal both paths agree in
	// sign everywhere.
	n := 300
	xs := make([]float64, n)
	for i := range xs {
		v := 10.0
		if (i/5)%2 == 0 {
			v += 0.4
		}
		xs[i] = v
	}
	a := Condition(xs, 60)
	b := ConditionTwoPass(xs, 60)
	for i := 30; i < n-30; i++ {
		if (a[i] > 0) != (b[i] > 0) {
			t.Fatalf("sign disagreement at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// The ref* functions below are the unfused conditioning chain the fused
// kernel replaced, kept verbatim as the bit-exactness oracle: a moving
// average from prefix sums, a separate subtraction, MeanAbs passes and a
// materialized decision-directed series per refinement.

func refMovingAverageInto(dst, xs []float64, window int) {
	if window <= 1 {
		copy(dst, xs)
		return
	}
	half := window / 2
	prefix := make([]float64, len(xs)+1)
	for i, x := range xs {
		prefix[i+1] = prefix[i] + x
	}
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(xs) {
			hi = len(xs)
		}
		dst[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
}

func refRemoveTrendInto(dst, xs []float64, window int) {
	avg := make([]float64, len(xs))
	refMovingAverageInto(avg, xs, window)
	for i, x := range xs {
		dst[i] = x - avg[i]
	}
}

func refNormalizeInPlace(xs []float64) {
	scale := MeanAbs(xs)
	if scale == 0 {
		for i := range xs {
			xs[i] = 0
		}
		return
	}
	for i := range xs {
		xs[i] /= scale
	}
}

func refConditionInto(dst, xs []float64, window int) {
	refRemoveTrendInto(dst, xs, window)
	refNormalizeInPlace(dst)
}

func refConditionTwoPassInto(dst, xs []float64, window int) {
	resid := dst
	refRemoveTrendInto(resid, xs, window)
	demod := make([]float64, len(xs))
	baseline := make([]float64, len(xs))
	for iter := 0; iter < 2; iter++ {
		amp := MeanAbs(resid)
		if amp == 0 {
			break
		}
		for i, r := range resid {
			if r >= 0 {
				demod[i] = xs[i] - amp
			} else {
				demod[i] = xs[i] + amp
			}
		}
		refMovingAverageInto(baseline, demod, window)
		for i := range xs {
			resid[i] = xs[i] - baseline[i]
		}
	}
	refNormalizeInPlace(resid)
}

// conditionKernels pairs each fused entry point with its oracle.
var conditionKernels = []struct {
	name      string
	got, want func(dst, xs []float64, window int)
}{
	{"RemoveTrendInto", RemoveTrendInto, refRemoveTrendInto},
	{"ConditionInto", ConditionInto, refConditionInto},
	{"ConditionTwoPassInto", ConditionTwoPassInto, refConditionTwoPassInto},
}

// checkBitExact runs every kernel on xs and fails on the first output
// whose bits differ from the oracle's. dst starts as NaN so a kernel that
// read stale output before writing it would show.
func checkBitExact(t *testing.T, label string, xs []float64, window int) {
	t.Helper()
	for _, k := range conditionKernels {
		want := make([]float64, len(xs))
		k.want(want, xs, window)
		got := make([]float64, len(xs))
		for i := range got {
			got[i] = math.NaN()
		}
		k.got(got, xs, window)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s %s n=%d window=%d: [%d] = %v (%#x), oracle %v (%#x)",
					k.name, label, len(xs), window, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// driftSquare is a slow drift under a ±1 square wave of period 10,
// scaled by scale: the shape the decoder conditions.
func driftSquare(n int, scale float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		sq := 1.0
		if (i/5)%2 == 1 {
			sq = -1
		}
		xs[i] = scale * (10 + 0.003*float64(i) + sq + 0.1*math.Sin(float64(i)*0.7))
	}
	return xs
}

// TestConditionKernelsBitExact pins the fused conditioning kernel to the
// unfused oracle bit for bit, across edge-case lengths, every window regime
// (copy, even, odd, clipped at or beyond the series) and series that reach
// the constant, exact-zero-residual, huge, subnormal and non-finite paths.
func TestConditionKernelsBitExact(t *testing.T) {
	series := []struct {
		label string
		gen   func(n int) []float64
	}{
		{"constant", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 7.25
			}
			return xs
		}},
		{"drift+square", func(n int) []float64 { return driftSquare(n, 1) }},
		// Integer runs keep every prefix sum exact, so residuals inside a
		// run are exactly +0 while the steps are not: the r >= 0 tie.
		{"integer runs", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64((i / 20) % 2 * 4)
			}
			return xs
		}},
		{"1e6", func(n int) []float64 { return driftSquare(n, 1e6) }},
		{"subnormal", func(n int) []float64 { return driftSquare(n, 1e-310) }},
		{"inf+nan", func(n int) []float64 {
			xs := driftSquare(n, 1)
			for i := range xs {
				switch i % 37 {
				case 3:
					xs[i] = math.Inf(1)
				case 17:
					xs[i] = math.Inf(-1)
				case 29:
					xs[i] = math.NaN()
				}
			}
			return xs
		}},
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 13, 100, 10300} {
		windows := []int{-1, 0, 1, 2, 3, 7, 8, 41, 400, n, n + 1, 2*n + 1, 2*n + 2}
		for _, s := range series {
			xs := s.gen(n)
			for _, w := range windows {
				checkBitExact(t, s.label, xs, w)
			}
		}
	}
}

// fuzzFloats reads data as little-endian float64 bit patterns, so the
// fuzzer reaches every NaN payload, infinity and subnormal.
func fuzzFloats(data []byte) []float64 {
	xs := make([]float64, len(data)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return xs
}

// FuzzConditionTwoPass checks the fused kernels against the unfused oracle
// bit for bit on arbitrary series and windows. Seed corpus:
// testdata/fuzz/FuzzConditionTwoPass.
func FuzzConditionTwoPass(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, window int16) {
		checkBitExact(t, "fuzz", fuzzFloats(data), int(window))
	})
}
