// Package uplink implements the Wi-Fi reader's decoding of tag
// transmissions from channel measurements — the paper's core contribution
// (§3). The pipeline is:
//
//  1. Signal conditioning: subtract a moving average (400 ms window) to
//     remove environmental drift, then normalize so the two switch states
//     map to ±1 (§3.2 step 1).
//  2. Frequency/spatial diversity: bin measurements into tag bits using
//     per-packet timestamps, correlate each (antenna, sub-channel) pair
//     with the known Barker preamble, and keep the best G sub-channels
//     (§3.2 step 2a).
//  3. Maximum-ratio combining: weight each good sub-channel by 1/σ², with
//     σ² estimated from its preamble residual (§3.2 step 2b).
//  4. Decision: hysteresis thresholds at µ ± σ/2 suppress spurious CSI
//     jumps, and a majority vote across the measurements of each bit
//     produces the decoded bit (§3.2 step 3).
//
// DecodeRSSI applies the same conditioning/hysteresis/vote machinery to
// the best single RSSI channel (§3.3). DecodeLongRange implements the
// orthogonal-code correlation decoder that extends range at the cost of
// rate (§3.4).
package uplink

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/obs"
)

// Config tunes the decoder. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// BitDuration of tag bits in seconds.
	BitDuration float64
	// ConditionWindow is the moving-average window in seconds (§3.2 uses
	// 400 ms).
	ConditionWindow float64
	// GoodSubchannels is the number of sub-channels kept after preamble
	// correlation ranking (§3.2 picks the top ten).
	GoodSubchannels int
	// MinCorrelation is the preamble correlation below which a
	// transmission is not considered detected.
	MinCorrelation float64
}

// DefaultConfig returns the paper's decoder parameters.
func DefaultConfig(bitDuration float64) Config {
	return Config{
		BitDuration:     bitDuration,
		ConditionWindow: 0.4,
		GoodSubchannels: 10,
		MinCorrelation:  0.5,
	}
}

// ChannelID names one measurement channel: an (antenna, sub-channel) CSI
// pair, or an antenna's RSSI when Subchannel is -1.
type ChannelID struct {
	Antenna    int
	Subchannel int
}

// String implements fmt.Stringer.
func (c ChannelID) String() string {
	if c.Subchannel < 0 {
		return fmt.Sprintf("rssi[ant %d]", c.Antenna)
	}
	return fmt.Sprintf("csi[ant %d, sub %d]", c.Antenna, c.Subchannel)
}

// Result is a decoded uplink transmission.
type Result struct {
	// Payload holds the decoded payload bits.
	Payload []bool
	// Good lists the channels selected for combining, best first.
	Good []ChannelID
	// PreambleCorrelation is the best channel's preamble correlation.
	PreambleCorrelation float64
	// MeasurementsPerBit is the mean number of channel measurements each
	// bit was decoded from.
	MeasurementsPerBit float64
}

// preambleLevels is the ±1 template of the tag preamble.
var preambleLevels = dsp.Barker13

// nFrameBits returns the total on-air bits for a payload length:
// 13 preamble + payload + 13 postamble.
func nFrameBits(payloadLen int) int { return 13 + payloadLen + 13 }

// binByTimestamp groups measurement indices into tag-bit bins using the
// per-packet timestamps (§3.2: "we use the timestamp that is in every
// Wi-Fi packet header to accurately group Wi-Fi packets belonging to the
// same bit transmission").
func binByTimestamp(ts []float64, start, bitDur float64, nbits int) [][]int {
	bins := make([][]int, nbits)
	// Two passes: count, size each bin exactly, then fill. One allocation
	// per occupied bin instead of O(log n) append regrowths, and bins with
	// no packets stay nil exactly as before.
	counts := make([]int, nbits)
	for _, t := range ts {
		j := int(math.Floor((t - start) / bitDur))
		if j >= 0 && j < nbits {
			counts[j]++
		}
	}
	for j, c := range counts {
		if c > 0 {
			bins[j] = make([]int, 0, c)
		}
	}
	for i, t := range ts {
		j := int(math.Floor((t - start) / bitDur))
		if j < 0 || j >= nbits {
			continue
		}
		bins[j] = append(bins[j], i)
	}
	return bins
}

// windowSamples converts the conditioning window from seconds to a sample
// count using the series' average measurement spacing.
func windowSamples(ts []float64, window float64) int {
	if len(ts) < 2 {
		return 1
	}
	span := ts[len(ts)-1] - ts[0]
	if span <= 0 {
		return 1
	}
	spacing := span / float64(len(ts)-1)
	n := int(window / spacing)
	if n < 2 {
		n = 2
	}
	return n
}

// binMeans averages values per bin; empty bins yield 0 with ok=false.
func binMeans(values []float64, bins [][]int) (means []float64, ok []bool) {
	means = make([]float64, len(bins))
	ok = make([]bool, len(bins))
	for j, idx := range bins {
		if len(idx) == 0 {
			continue
		}
		var sum float64
		for _, i := range idx {
			sum += values[i]
		}
		means[j] = sum / float64(len(idx))
		ok[j] = true
	}
	return means, ok
}

// channelStats holds one channel's preamble fit. cond comes from the dsp
// buffer pool; callers release a batch with releaseStats once combining is
// done.
type channelStats struct {
	id       ChannelID
	corr     float64 // signed preamble correlation
	sign     float64 // polarity (+1/-1)
	variance float64 // per-measurement residual variance during preamble
	cond     []float64
}

// releaseStats returns the pooled conditioned series held by stats.
func releaseStats(stats []channelStats) {
	for i := range stats {
		dsp.PutSlice(stats[i].cond)
		stats[i].cond = nil
	}
}

// windowFor returns the conditioning window in seconds. The configured
// 400 ms window must span many bit periods — a window comparable to a run
// of identical bits subtracts the tag's own modulation, which matters for
// slow links such as beacon-only decoding (Fig. 16) — so it is floored at
// 24 bits (the paper's 400 ms is 40 bits at its usual 100 bps). Because
// decoding slices the measurement series to the frame (see frameRange),
// the window may exceed the frame without the idle-level bias that
// out-of-frame samples would introduce.
func (c Config) windowFor(frameBits int) float64 {
	w := c.ConditionWindow
	if min := 24 * c.BitDuration; w < min {
		w = min
	}
	return w
}

// frameRange returns the index range [lo, hi) of timestamps within the
// transmission window, assuming ts is non-decreasing. Conditioning only
// in-frame measurements keeps the tag's idle level (which equals the
// zero-bit level) out of the baseline estimate.
func frameRange(ts []float64, start, end float64) (lo, hi int) {
	lo = sort.SearchFloat64s(ts, start)
	hi = lo
	for hi < len(ts) && ts[hi] < end {
		hi++
	}
	return lo, hi
}

// analyzeChannel conditions one raw series and scores it against the
// preamble.
func analyzeChannel(id ChannelID, raw []float64, ts []float64, bins [][]int, cfg Config) channelStats {
	cond := dsp.GetSlice(len(raw))
	dsp.ConditionTwoPassInto(cond, raw, windowSamples(ts, cfg.windowFor(len(bins))))
	// Preamble correlation over the first 13 bit bins. Only their means
	// are needed, averaged as binMeans does; empty bins are skipped.
	var dot, mm, pp float64
	for j := 0; j < len(preambleLevels) && j < len(bins); j++ {
		if len(bins[j]) == 0 {
			continue
		}
		var sum float64
		for _, i := range bins[j] {
			sum += cond[i]
		}
		mean := sum / float64(len(bins[j]))
		dot += mean * preambleLevels[j]
		mm += mean * mean
		pp += preambleLevels[j] * preambleLevels[j]
	}
	//wblint:ignore PH003 ownership transfers to the caller inside channelStats; released in a batch by releaseStats (or the DecodeSingleChannel defer) after combining
	st := channelStats{id: id, cond: cond, sign: 1}
	if mm > 0 && pp > 0 {
		st.corr = dot / math.Sqrt(mm*pp)
	}
	if st.corr < 0 {
		st.sign = -1
	}
	// Per-measurement residual variance over the preamble bins, with the
	// template sign applied.
	var res, n float64
	for j := 0; j < len(preambleLevels) && j < len(bins); j++ {
		for _, i := range bins[j] {
			d := st.sign*cond[i] - preambleLevels[j]
			res += d * d
			n++
		}
	}
	if n > 1 {
		st.variance = res / (n - 1)
	} else {
		st.variance = math.Inf(1)
	}
	if st.variance < 1e-9 {
		st.variance = 1e-9
	}
	return st
}

// ChannelImpairment lets a fault layer perturb an extracted channel series
// in place before conditioning (see internal/faults). ts and raw are the
// in-frame timestamps and samples of the channel named by id; raw may be
// mutated, ts is shared across channels and must be treated as read-only.
// Implementations must be deterministic and must draw only from their own
// randomness stream.
type ChannelImpairment interface {
	ImpairChannel(id ChannelID, ts, raw []float64)
}

// Decoder decodes tag transmissions from measurement series.
type Decoder struct {
	cfg Config
	met decoderMetrics

	// Impair, when non-nil, corrupts each extracted channel before it is
	// conditioned and scored (core wires the fault injector here).
	Impair ChannelImpairment
}

// decoderMetrics holds the decoder's obs handles; the zero value means
// "not instrumented" (nil handles no-op).
type decoderMetrics struct {
	decodes          *obs.Counter
	channelsAnalyzed *obs.Counter
	channelsSelected *obs.Counter
	channelsRejected *obs.Counter
	bitsDecoded      *obs.Counter
	bitsFlipped      *obs.Counter // hysteresis decision transitions
	emptyBins        *obs.Counter
	corr             *obs.Histogram
	measPerBit       *obs.Histogram

	// Streaming-core accounting (see stream.go). The batch entry points
	// are wrappers over the stream, so these tick for every decode.
	streamPushes      *obs.Counter
	streamBitsEmitted *obs.Counter
	streamFlushBits   *obs.Counter // bits only finalized by Flush (truncated traces)
	streamHighwater   *obs.Gauge   // frame-arena occupancy (max = high-water)
}

// Instrument registers the decoder's per-stage pipeline accounting on r
// (uplink.* in the README's metric catalog): channels analyzed vs kept by
// the sub-channel selection, bits decoded, hysteresis flips, empty bit
// bins, and the distributions of preamble correlation and measurement
// density. A nil registry detaches the metrics.
func (d *Decoder) Instrument(r *obs.Registry) {
	d.met = decoderMetrics{
		decodes:          r.Counter("uplink.decodes"),
		channelsAnalyzed: r.Counter("uplink.channels_analyzed"),
		channelsSelected: r.Counter("uplink.channels_selected"),
		channelsRejected: r.Counter("uplink.channels_rejected"),
		bitsDecoded:      r.Counter("uplink.bits_decoded"),
		bitsFlipped:      r.Counter("uplink.hysteresis_flips"),
		emptyBins:        r.Counter("uplink.empty_bins"),
		corr:             r.Histogram("uplink.preamble_correlation", obs.UnitBuckets),
		measPerBit:       r.Histogram("uplink.measurements_per_bit", obs.LinearBuckets(0, 5, 16)),

		streamPushes:      r.Counter("uplink.stream.pushes"),
		streamBitsEmitted: r.Counter("uplink.stream.bits_emitted"),
		streamFlushBits:   r.Counter("uplink.stream.flush_bits"),
		streamHighwater:   r.Gauge("uplink.stream.buffer_highwater"),
	}
}

// NewDecoder validates the config and returns a decoder.
func NewDecoder(cfg Config) (*Decoder, error) {
	if cfg.BitDuration <= 0 {
		return nil, fmt.Errorf("uplink: bit duration must be positive, got %v", cfg.BitDuration)
	}
	if cfg.ConditionWindow <= 0 {
		return nil, fmt.Errorf("uplink: condition window must be positive, got %v", cfg.ConditionWindow)
	}
	if cfg.GoodSubchannels <= 0 {
		return nil, fmt.Errorf("uplink: need at least one good sub-channel")
	}
	return &Decoder{cfg: cfg}, nil
}

// Config returns the decoder's configuration.
func (d *Decoder) Config() Config { return d.cfg }

// DecodeCSI decodes a payload of payloadLen bits from the CSI series of a
// transmission starting at start. The series must cover the transmission
// and its timestamps must be non-decreasing. It is a push-all-then-flush
// wrapper over StreamDecoder (see stream.go): the streaming core is the
// only decode implementation, and its output is byte-identical however the
// same series is chunked into pushes.
func (d *Decoder) DecodeCSI(s *csi.Series, start float64, payloadLen int) (*Result, error) {
	return d.decodeSeries(s, start, payloadLen, StreamCSI, PaperVariant)
}

// DecodeRSSI decodes using only RSSI: the antenna with the best preamble
// correlation is selected (§3.3) and decoded alone. Like DecodeCSI it is a
// thin wrapper over the streaming core.
func (d *Decoder) DecodeRSSI(s *csi.Series, start float64, payloadLen int) (*Result, error) {
	return d.decodeSeries(s, start, payloadLen, StreamRSSI, PaperVariant)
}

// decodeSeries validates a whole series and decodes it through the
// streaming core in the given mode and pipeline variant.
func (d *Decoder) decodeSeries(s *csi.Series, start float64, payloadLen int, mode StreamMode, v Variant) (*Result, error) {
	sd, err := d.newStream(start, payloadLen, mode, false, 0, 0)
	if err != nil {
		return nil, err
	}
	if s.Len() == 0 {
		return nil, fmt.Errorf("uplink: empty measurement series")
	}
	if err := s.CheckShape(); err != nil {
		return nil, err
	}
	sd.v = v
	return sd.pushAll(s)
}

// pushAll drives the streaming core over a whole series: push every
// measurement, then flush. Push and the batch wrappers share one
// timestamp contract — non-decreasing, equal timestamps legal — matching
// what csi.Series.Append documents for the capture side.
func (sd *StreamDecoder) pushAll(s *csi.Series) (*Result, error) {
	for _, m := range s.Measurements {
		if _, err := sd.Push(m); err != nil {
			return nil, err
		}
	}
	return sd.Flush()
}

// combineAndDecide ranks channels by |preamble correlation|, keeps the top
// G (one for CombineBestSingle), and decides bits.
func (d *Decoder) combineAndDecide(stats []channelStats, bins [][]int, payloadLen int, v Variant) (*Result, error) {
	//wblint:ignore HP002 the comparator runs once per frame close, not per push; sort.Slice's unstable tie order is pinned by the golden traces
	sort.Slice(stats, func(i, j int) bool { //wblint:ignore HP001 boxing the slice header is once per frame close, not per push; see the HP002 reason above
		return math.Abs(stats[i].corr) > math.Abs(stats[j].corr)
	})
	g := d.cfg.GoodSubchannels
	if v.Combining == CombineBestSingle {
		g = 1
	}
	if g > len(stats) {
		g = len(stats)
	}
	d.met.channelsRejected.Add(int64(len(stats) - g))
	return d.combineSelected(stats[:g], bins, payloadLen, v)
}

// combineSelected combines the selected channels and decides the payload
// bits. The paper's variant weights each channel by 1/σ² (MRC), turns the
// combined series into ±1 decisions with hysteresis, and majority-votes
// each bit; the other variants swap in equal weights, a plain vote over the
// combined values, or the sign of each bit's sum.
func (d *Decoder) combineSelected(sel []channelStats, bins [][]int, payloadLen int, v Variant) (*Result, error) {
	if len(sel) == 0 {
		return nil, fmt.Errorf("uplink: no channels to combine")
	}
	d.met.decodes.Inc()
	d.met.channelsSelected.Add(int64(len(sel)))
	n := len(sel[0].cond)
	// Per-measurement MRC: y_t = Σ sign_i · c_i(t) / σ_i².
	combined := dsp.GetSlice(n)
	defer dsp.PutSlice(combined)
	for _, st := range sel {
		w := st.sign / st.variance
		if v.Combining == CombineEqualGain {
			w = st.sign
		}
		for t, x := range st.cond {
			combined[t] += w * x
		}
	}
	if v.Decision == DecideHysteresisVote {
		// Hysteresis thresholds from the combined series statistics
		// (µ ± σ/2, §3.2). The scale estimator is the mean absolute
		// deviation: for the bimodal ±A series it gives ~A (a dead zone
		// of ±A/2, as intended), it stays centered between the lobes even
		// for unbalanced payloads (unlike the median), and heavy-tailed
		// spurious CSI jumps inflate it only linearly (unlike the
		// standard deviation). Each ±1 decision overwrites the combined
		// value it was made from, which the comparator has already read.
		hyst := dsp.NewHysteresis(dsp.Mean(combined), dsp.MeanAbsDev(combined))
		var flips int64
		prev := 0
		for t, x := range combined {
			cur := -1
			if hyst.Update(x) {
				cur = 1
			}
			combined[t] = float64(cur)
			if t > 0 && cur != prev {
				flips++
			}
			prev = cur
		}
		d.met.bitsFlipped.Add(flips)
	}
	// Decide each payload bit from its bin. Counting the positive values
	// in place is exactly dsp.MajorityVote without the per-bit vote slice.
	mean := v.Decision == DecideBitMean
	payload := make([]bool, payloadLen)
	var measured float64
	var empty int64
	for b := 0; b < payloadLen; b++ {
		bin := bins[13+b]
		if len(bin) == 0 {
			empty++
		}
		if mean {
			var sum float64
			for _, idx := range bin {
				sum += combined[idx]
			}
			payload[b] = sum > 0
		} else {
			pos := 0
			for _, idx := range bin {
				if combined[idx] > 0 {
					pos++
				}
			}
			payload[b] = pos*2 > len(bin)
		}
		measured += float64(len(bin))
	}
	res := &Result{
		Payload:             payload,
		PreambleCorrelation: math.Abs(sel[0].corr),
		MeasurementsPerBit:  measured / float64(payloadLen),
		Good:                make([]ChannelID, 0, len(sel)),
	}
	d.met.bitsDecoded.Add(int64(payloadLen))
	d.met.emptyBins.Add(empty)
	d.met.corr.Observe(res.PreambleCorrelation)
	d.met.measPerBit.Observe(res.MeasurementsPerBit)
	for _, st := range sel {
		res.Good = append(res.Good, st.id)
	}
	return res, nil
}

// Detected reports whether the result's preamble correlation clears the
// configured detection threshold.
func (d *Decoder) Detected(r *Result) bool {
	return r != nil && r.PreambleCorrelation >= d.cfg.MinCorrelation
}

// NormalizedChannel exposes the conditioned (detrended, normalized) series
// of one CSI channel — the quantity whose PDF Fig. 4 plots.
func (d *Decoder) NormalizedChannel(s *csi.Series, antenna, subchannel int) ([]float64, error) {
	if err := s.CheckShape(); err != nil {
		return nil, err
	}
	raw, err := s.CSIChannel(antenna, subchannel)
	if err != nil {
		return nil, err
	}
	return dsp.Condition(raw, windowSamples(s.Timestamps(), d.cfg.ConditionWindow)), nil
}

// DecodeSingleChannel decodes the payload using exactly one CSI channel —
// the "Random-Subchannel" baseline of Fig. 11 and the per-sub-channel BER
// probe of Fig. 5. It too wraps the streaming core.
func (d *Decoder) DecodeSingleChannel(s *csi.Series, start float64, payloadLen, antenna, subchannel int) (*Result, error) {
	sd, err := d.newStream(start, payloadLen, StreamCSI, true, antenna, subchannel)
	if err != nil {
		return nil, err
	}
	if err := s.CheckShape(); err != nil {
		return nil, err
	}
	if err := s.ValidateCSIChannel(antenna, subchannel); err != nil {
		return nil, err
	}
	return sd.pushAll(s)
}
