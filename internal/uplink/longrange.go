package uplink

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/csi"
	"repro/internal/dsp"
)

// Long-range decoding (§3.4): at distances where the two channel levels are
// no longer distinct (Fig. 6), the tag represents each payload bit with one
// of two orthogonal chip codes of length L, and the reader correlates the
// conditioned channel measurements with both codes, outputting the bit with
// the larger correlation. Correlation over L chips buys an SNR gain
// proportional to L, extending range (Fig. 20); the tag's power draw is
// unchanged because it still just toggles its switch.

// LongRangeResult is a decoded long-range transmission.
type LongRangeResult struct {
	// Payload holds the decoded bits.
	Payload []bool
	// Margins holds each bit's normalized decision margin
	// (|corr1 − corr0| relative to the total correlation energy).
	Margins []float64
	// Good lists the channels used, best first.
	Good []ChannelID
}

// DecodeLongRange decodes payloadLen bits that were transmitted as chip
// codes code0/code1 (equal length L) starting at time start. Chips have the
// decoder's configured BitDuration, and the frame layout is
// preamble + payloadLen·L chips + postamble.
//
// The decision metric compares |corr(code1)| against |corr(code0)|, which
// is polarity-free: code orthogonality guarantees the wrong code correlates
// only with noise regardless of the channel's sign.
func (d *Decoder) DecodeLongRange(s *csi.Series, start float64, payloadLen int, code0, code1 []float64) (*LongRangeResult, error) {
	if payloadLen <= 0 {
		return nil, fmt.Errorf("uplink: payload length must be positive, got %d", payloadLen)
	}
	if len(code0) == 0 || len(code0) != len(code1) {
		return nil, fmt.Errorf("uplink: code lengths must match and be positive (%d, %d)",
			len(code0), len(code1))
	}
	if s.Len() == 0 {
		return nil, fmt.Errorf("uplink: empty measurement series")
	}
	if err := s.CheckShape(); err != nil {
		return nil, err
	}
	L := len(code0)
	nChips := 13 + payloadLen*L + 13
	ts := s.Timestamps()
	lo, hi := frameRange(ts, start, start+float64(nChips)*d.cfg.BitDuration)
	if lo == hi {
		return nil, fmt.Errorf("uplink: no measurements inside the transmission window")
	}
	ts = ts[lo:hi]
	bins := binByTimestamp(ts, start, d.cfg.BitDuration, nChips)

	// Condition every channel and compute per-chip means.
	type chipChannel struct {
		id    ChannelID
		means []float64
		ok    []bool
		score float64
	}
	// Pooled extraction and conditioning buffers are reused across the
	// channel scan; only the per-chip means survive the loop.
	raw := dsp.GetSlice(s.Len())
	defer func() { dsp.PutSlice(raw) }()
	cond := dsp.GetSlice(hi - lo)
	defer dsp.PutSlice(cond)
	channels := make([]chipChannel, 0, s.Antennas()*s.Subchannels())
	for a := 0; a < s.Antennas(); a++ {
		for k := 0; k < s.Subchannels(); k++ {
			var err error
			raw, err = s.CSIChannelInto(raw, a, k)
			if err != nil {
				return nil, err
			}
			id := ChannelID{a, k}
			if d.Impair != nil {
				d.Impair.ImpairChannel(id, ts, raw[lo:hi])
			}
			dsp.ConditionTwoPassInto(cond, raw[lo:hi], windowSamples(ts, d.cfg.windowFor(nChips)))
			means, ok := binMeans(cond, bins)
			channels = append(channels, chipChannel{id: id, means: means, ok: ok})
		}
	}

	// Per-channel, per-bit code correlations.
	corr := func(ch *chipChannel, bit int, code []float64) float64 {
		base := 13 + bit*L
		var sum float64
		for j := 0; j < L; j++ {
			if !ch.ok[base+j] {
				continue
			}
			sum += ch.means[base+j] * code[j]
		}
		return sum
	}
	// Score channels by total discriminability across bits, then keep
	// the top G ("picks the Wi-Fi sub-channels that provide the maximum
	// correlation peaks").
	for i := range channels {
		ch := &channels[i]
		for b := 0; b < payloadLen; b++ {
			c1 := math.Abs(corr(ch, b, code1))
			c0 := math.Abs(corr(ch, b, code0))
			ch.score += math.Abs(c1 - c0)
		}
	}
	if len(channels) == 0 {
		return nil, fmt.Errorf("uplink: series has no CSI channels")
	}
	sort.Slice(channels, func(i, j int) bool { return channels[i].score > channels[j].score })
	g := d.cfg.GoodSubchannels
	if g > len(channels) {
		g = len(channels)
	}
	sel := channels[:g]

	res := &LongRangeResult{
		Payload: make([]bool, payloadLen),
		Margins: make([]float64, payloadLen),
	}
	for _, ch := range sel {
		res.Good = append(res.Good, ch.id)
	}
	for b := 0; b < payloadLen; b++ {
		var metric, energy float64
		for i := range sel {
			c1 := math.Abs(corr(&sel[i], b, code1))
			c0 := math.Abs(corr(&sel[i], b, code0))
			metric += c1 - c0
			energy += c1 + c0
		}
		res.Payload[b] = metric > 0
		if energy > 0 {
			res.Margins[b] = math.Abs(metric) / energy
		}
	}
	return res, nil
}
