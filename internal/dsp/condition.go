package dsp

// This file implements the "signal conditioning" step from §3.2 of the
// paper: removing slow temporal channel variation with a moving average and
// normalizing the residual so tag bits map to ±1.
//
// Every step has an Into variant writing into a caller-provided buffer
// (which must not alias xs); the allocating forms wrap them. RemoveTrend,
// Condition and ConditionTwoPass share one fused pass (detrend) that builds
// the prefix sums, writes the residual and accumulates its mean absolute
// value together, so their only internal scratch is one pooled prefix-sum
// buffer per call, and the allocating forms cost exactly one result slice.

import "math"

// MovingAverage returns the centered moving average of xs with the given
// window length. Near the edges the window shrinks to the available
// samples, so the result has the same length as xs. A window <= 1 returns a
// copy of xs.
func MovingAverage(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	MovingAverageInto(out, xs, window)
	return out
}

// MovingAverageInto computes MovingAverage into dst, which must have the
// same length as xs and not alias it.
func MovingAverageInto(dst, xs []float64, window int) {
	if window <= 1 {
		copy(dst, xs)
		return
	}
	half := window / 2
	// Prefix sums for O(n) windowed means.
	prefix := GetSlice(len(xs) + 1)
	defer PutSlice(prefix)
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

// RemoveTrend subtracts the centered moving average with the given window
// from xs, producing a zero-mean residual that tracks only fast changes
// (such as the tag's modulation). This is step 1 of the paper's signal
// conditioning.
func RemoveTrend(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	RemoveTrendInto(out, xs, window)
	return out
}

// RemoveTrendInto computes RemoveTrend into dst, which must have the same
// length as xs and not alias it.
func RemoveTrendInto(dst, xs []float64, window int) {
	prefix := GetSlice(len(xs) + 1)
	detrend(dst, xs, prefix, window, 0)
	PutSlice(prefix)
}

// detrend is the one pass behind every conditioning entry point. It writes
// dst[i] = xs[i] - MA(src)[i] for the centered moving average of
// MovingAverageInto, where src is xs when amp is 0 and otherwise the
// decision-directed series ConditionTwoPass describes: xs[i]-amp where
// dst[i] >= 0 on entry, else xs[i]+amp. It returns Σ|dst[i]| summed in
// index order, so the caller's next amp and its normalize scale are one
// division away.
//
// Every floating-point operation is the one the unfused MovingAverageInto
// → subtract → MeanAbs chain performed, with the same operands in the same
// order: the prefix sums accumulate from prefix[0] = 0, each mean divides
// by float64(hi-lo) (hoisted, not inverted, for the interior where it is
// always 2*half+1), and the residual subtracts the mean from the series.
// The result is therefore bit-identical to that chain, NaN payloads
// included (see prefixSums). prefix must hold len(xs)+1 elements.
func detrend(dst, xs, prefix []float64, window int, amp float64) float64 {
	n := len(xs)
	var sum float64
	if window <= 1 {
		// The moving average is the series itself; src is never stored.
		for i, x := range xs {
			src := x
			if amp != 0 {
				src = decide(x, dst[i], amp)
			}
			dst[i] = x - src
			sum += math.Abs(dst[i])
		}
		return sum
	}
	prefixSums(prefix[:n+1], xs, dst, amp)
	half := window / 2
	// Edges: the window is clipped on either side. Interior: the full
	// window [i-half, i+half] fits, which needs 2*half+1 <= n.
	inLo, inHi := half, n-half
	if inHi < inLo {
		inLo, inHi = n, n
	}
	for i := 0; i < inLo; i++ {
		sum += edgeResidual(dst, xs, prefix, i, half)
	}
	width := float64(2*half + 1)
	for i := inLo; i < inHi; i++ {
		dst[i] = xs[i] - (prefix[i+half+1]-prefix[i-half])/width
		sum += math.Abs(dst[i])
	}
	for i := inHi; i < n; i++ {
		sum += edgeResidual(dst, xs, prefix, i, half)
	}
	return sum
}

// prefixSums sets prefix[0] = 0 and prefix[i+1] = prefix[i] + src[i],
// where src is detrend's series for amp.
//
// The fast loops differ from that recurrence in two ways. The running sum
// stays in a register, off the store-to-load round trip through prefix.
// The decision-directed sample is x + (±amp), its sign picked by a
// conditional move instead of a branch that the residual's sign would
// mispredict on noisy channels (x - amp and x + (-amp) are the same
// exactly rounded value). Neither changes a result, but both change which
// operand of an add sits in which register, and when both operands of an
// add are NaN the hardware keeps the payload of the one in the
// destination (IEEE 754 leaves the choice open). Every other result is
// fully determined. NaN absorbs every later add, so a non-NaN final sum
// proves no add in the chain saw a NaN, and the fast sums are the exact
// ones. Otherwise the sums are rebuilt through memory, in the form the
// unfused MovingAverageInto compiles to, so NaN payloads match it too.
func prefixSums(prefix, xs, dst []float64, amp float64) {
	prefix[0] = 0
	var p float64
	if amp == 0 {
		for i, x := range xs {
			p += x
			prefix[i+1] = p
		}
	} else {
		plus := math.Float64bits(amp)
		minus := plus ^ (1 << 63)
		for i, x := range xs {
			bits := plus
			if dst[i] >= 0 {
				bits = minus
			}
			p += x + math.Float64frombits(bits)
			prefix[i+1] = p
		}
	}
	if !math.IsNaN(p) {
		return
	}
	if amp == 0 {
		for i, x := range xs {
			prefix[i+1] = prefix[i] + x
		}
		return
	}
	for i, x := range xs {
		prefix[i+1] = prefix[i] + decide(x, dst[i], amp)
	}
}

// decide returns the decision-directed sample: x less the modulation
// estimate amp when the current residual r says the bit is high, plus it
// otherwise (NaN residuals count as low, as r >= 0 is false for them).
func decide(x, r, amp float64) float64 {
	if r >= 0 {
		return x - amp
	}
	return x + amp
}

// edgeResidual writes detrend's residual for an index whose window is
// clipped by the series bounds and returns its magnitude.
func edgeResidual(dst, xs, prefix []float64, i, half int) float64 {
	lo := i - half
	if lo < 0 {
		lo = 0
	}
	hi := i + half + 1
	if hi > len(xs) {
		hi = len(xs)
	}
	dst[i] = xs[i] - (prefix[hi]-prefix[lo])/float64(hi-lo)
	return math.Abs(dst[i])
}

// Normalize scales a zero-mean series so that the two modulation levels map
// to approximately -1 and +1. Following §3.2, the scale is the mean of the
// absolute values (which estimates the level magnitude without knowing the
// transmitted bits). A series with zero mean absolute value is returned
// as all zeros.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	scaleBy(out, MeanAbs(out))
	return out
}

// scaleBy divides xs by scale in place, or zeroes it when scale is 0.
func scaleBy(xs []float64, scale float64) {
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

// Condition applies the full signal-conditioning pipeline: moving-average
// detrend followed by normalization. window is in samples (the paper uses
// the samples spanning 400 ms of packets).
func Condition(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	ConditionInto(out, xs, window)
	return out
}

// ConditionInto computes Condition into dst, which must have the same
// length as xs and not alias it.
func ConditionInto(dst, xs []float64, window int) {
	prefix := GetSlice(len(xs) + 1)
	sum := detrend(dst, xs, prefix, window, 0)
	PutSlice(prefix)
	scaleBy(dst, meanOf(sum, len(xs)))
}

// meanOf is MeanAbs's final step: sum/n, or 0 for an empty series.
func meanOf(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ConditionTwoPass is Condition with decision-directed baseline removal.
// A plain moving average is biased wherever the modulated bits are locally
// unbalanced (a run of ones drags the baseline up and crushes those very
// bits toward zero). The second pass estimates the modulation from the
// first pass's signs, subtracts it, and recomputes the baseline from the
// modulation-free residue:
//
//	resid   = xs - MA(xs)                 (first pass)
//	est     = sign(resid) · mean|resid|   (modulation estimate)
//	baseline = MA(xs - est)               (unbiased second pass)
//	out      = Normalize(xs - baseline)
//
// When the first pass's signs are noise (a weak link), est averages to
// nothing and the result degrades gracefully to the single-pass Condition.
// The estimate is refined over a few iterations, which matters near the
// series edges where the centered window is asymmetric.
func ConditionTwoPass(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	ConditionTwoPassInto(out, xs, window)
	return out
}

// ConditionTwoPassInto computes ConditionTwoPass into dst, which must have
// the same length as xs and not alias it. The decision-directed series is
// never materialized: each refinement reads the previous residual's signs
// from dst while building its prefix sums, then overwrites dst.
func ConditionTwoPassInto(dst, xs []float64, window int) {
	prefix := GetSlice(len(xs) + 1)
	amp := meanOf(detrend(dst, xs, prefix, window, 0), len(xs))
	for iter := 0; iter < 2 && amp != 0; iter++ {
		amp = meanOf(detrend(dst, xs, prefix, window, amp), len(xs))
	}
	PutSlice(prefix)
	scaleBy(dst, amp)
}
