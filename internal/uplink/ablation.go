package uplink

import (
	"fmt"

	"repro/internal/csi"
)

// This file provides controlled variants of the decoding pipeline so each
// design choice in §3.2 can be ablated: the combining rule, the decision
// rule, and the bit-binning rule. The main decoder always uses the paper's
// choices; Variant selects an alternative for side-by-side comparison.

// Combining selects how good sub-channels merge.
type Combining int

// Combining rules.
const (
	// CombineMRC weights each channel by 1/σ² (the paper's choice,
	// optimal for Gaussian noise).
	CombineMRC Combining = iota
	// CombineEqualGain sums the conditioned channels with equal weight.
	CombineEqualGain
	// CombineBestSingle uses only the highest-correlation channel.
	CombineBestSingle
)

// String implements fmt.Stringer.
func (c Combining) String() string {
	switch c {
	case CombineEqualGain:
		return "equal-gain"
	case CombineBestSingle:
		return "best-single"
	}
	return "mrc"
}

// Decision selects how measurements become bits.
type Decision int

// Decision rules.
const (
	// DecideHysteresisVote applies the µ±σ/2 hysteresis comparator per
	// measurement and majority-votes per bit (the paper's choice).
	DecideHysteresisVote Decision = iota
	// DecidePlainVote majority-votes the raw signs, no hysteresis.
	DecidePlainVote
	// DecideBitMean thresholds the mean of each bit's measurements at
	// zero (no voting).
	DecideBitMean
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecidePlainVote:
		return "plain-vote"
	case DecideBitMean:
		return "bit-mean"
	}
	return "hysteresis-vote"
}

// Binning selects how measurements map to bit positions.
type Binning int

// Binning rules.
const (
	// BinTimestamp groups measurements by packet timestamp (the paper's
	// choice, robust to bursty traffic).
	BinTimestamp Binning = iota
	// BinEqualCount splits the measurement sequence into equal-count
	// groups, ignoring timing — correct only for perfectly regular
	// traffic.
	BinEqualCount
)

// String implements fmt.Stringer.
func (b Binning) String() string {
	if b == BinEqualCount {
		return "equal-count"
	}
	return "timestamp"
}

// Variant configures an ablated decoder.
type Variant struct {
	Combining Combining
	Decision  Decision
	Binning   Binning
}

// PaperVariant is the pipeline exactly as §3.2 describes it.
var PaperVariant = Variant{}

// String implements fmt.Stringer.
func (v Variant) String() string {
	return fmt.Sprintf("%s/%s/%s", v.Combining, v.Decision, v.Binning)
}

// DecodeVariant decodes a payload with the selected pipeline variant. Like
// DecodeCSI it is a push-all-then-flush wrapper over StreamDecoder, so a
// variant differs from the paper's pipeline only in the three choices it
// names; PaperVariant is DecodeCSI.
func (d *Decoder) DecodeVariant(s *csi.Series, start float64, payloadLen int, v Variant) (*Result, error) {
	return d.decodeSeries(s, start, payloadLen, StreamCSI, v)
}

// binEqualCount ignores timestamps: measurements inside the transmission
// window are split into equal-count bins in arrival order. Like
// binByTimestamp it counts first and sizes each bin exactly; bins with no
// measurements stay nil.
func binEqualCount(ts []float64, start, bitDur float64, nbits int) [][]int {
	end := start + float64(nbits)*bitDur
	inWindow := 0
	for _, t := range ts {
		if t >= start && t < end {
			inWindow++
		}
	}
	bins := make([][]int, nbits)
	if inWindow == 0 {
		return bins
	}
	per := float64(inWindow) / float64(nbits)
	counts := make([]int, nbits)
	for j := 0; j < inWindow; j++ {
		counts[min(int(float64(j)/per), nbits-1)]++
	}
	for b, c := range counts {
		if c > 0 {
			bins[b] = make([]int, 0, c)
		}
	}
	j := 0
	for i, t := range ts {
		if t >= start && t < end {
			b := min(int(float64(j)/per), nbits-1)
			bins[b] = append(bins[b], i)
			j++
		}
	}
	return bins
}
