package uplink

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/tag"
)

// ablationTrial decodes one synthetic transmission with the given variant
// and returns the bit error count.
func ablationTrial(t *testing.T, v Variant, cfg synthConfig, seed int64) int {
	t.Helper()
	payload := randomPayload(90, seed)
	const bitDur = 0.01
	mod, err := tag.NewModulator(tag.FrameBits(payload), 1.0, bitDur)
	if err != nil {
		t.Fatal(err)
	}
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, seed+500)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	res, err := d.DecodeVariant(s, mod.Start(), len(payload), v)
	if err != nil {
		t.Fatal(err)
	}
	return countBitErrors(res.Payload, payload)
}

func TestPaperVariantMatchesDecodeCSI(t *testing.T) {
	payload := randomPayload(90, 1)
	const bitDur = 0.01
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, bitDur)
	cfg := defaultSynth()
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 2)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	a, err := d.DecodeCSI(s, mod.Start(), len(payload))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.DecodeVariant(s, mod.Start(), len(payload), PaperVariant)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Payload {
		if a.Payload[i] != b.Payload[i] {
			t.Fatalf("paper variant diverges from DecodeCSI at bit %d", i)
		}
	}
}

func TestMRCBeatsBestSingleAtWeakDepth(t *testing.T) {
	cfg := defaultSynth()
	cfg.depth = 0.04
	var mrc, single int
	for seed := int64(0); seed < 4; seed++ {
		mrc += ablationTrial(t, PaperVariant, cfg, 30+seed)
		single += ablationTrial(t, Variant{Combining: CombineBestSingle}, cfg, 30+seed)
	}
	if mrc > single {
		t.Errorf("MRC errors (%d) should not exceed best-single errors (%d)", mrc, single)
	}
}

func TestEqualGainNoBetterThanMRC(t *testing.T) {
	cfg := defaultSynth()
	cfg.depth = 0.035
	var mrc, eq int
	for seed := int64(0); seed < 5; seed++ {
		mrc += ablationTrial(t, PaperVariant, cfg, 60+seed)
		eq += ablationTrial(t, Variant{Combining: CombineEqualGain}, cfg, 60+seed)
	}
	// MRC is optimal for unequal noise; allow ties but not a clear loss.
	if mrc > eq+3 {
		t.Errorf("MRC errors (%d) should not exceed equal-gain errors (%d) by a margin", mrc, eq)
	}
}

func TestHysteresisHelpsWithSpikes(t *testing.T) {
	// Inject heavy-tailed spikes: hysteresis+vote should beat bit-mean,
	// which a single spike inside a bit can flip.
	cfg := defaultSynth()
	cfg.depth = 0.15
	mkSeries := func(seed int64) int {
		payload := randomPayload(90, seed)
		mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
		cfg.duration = mod.End() + 0.5
		s := synthSeries(cfg, mod, seed+900)
		// Spike 3% of measurements by 20x.
		spike := 0
		for i := range s.Measurements {
			if i%33 == 0 {
				for a := range s.Measurements[i].CSI {
					for k := range s.Measurements[i].CSI[a] {
						s.Measurements[i].CSI[a][k] *= 20
					}
				}
				spike++
			}
		}
		d, _ := NewDecoder(DefaultConfig(0.01))
		hv, err := d.DecodeVariant(s, mod.Start(), len(payload), PaperVariant)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := d.DecodeVariant(s, mod.Start(), len(payload), Variant{Decision: DecideBitMean})
		if err != nil {
			t.Fatal(err)
		}
		return countBitErrors(bm.Payload, payload) - countBitErrors(hv.Payload, payload)
	}
	total := 0
	for seed := int64(0); seed < 3; seed++ {
		total += mkSeries(100 + seed)
	}
	if total < 0 {
		t.Errorf("bit-mean should not beat hysteresis+vote under spikes (diff %d)", total)
	}
}

func TestTimestampBinningBeatsEqualCountUnderBursts(t *testing.T) {
	// Bursty packet timing: equal-count binning misassigns measurements.
	cfg := defaultSynth()
	cfg.depth = 0.15
	cfg.jitter = 1.8 // heavily irregular arrivals
	var tsErrs, eqErrs int
	for seed := int64(0); seed < 4; seed++ {
		tsErrs += ablationTrial(t, PaperVariant, cfg, 200+seed)
		eqErrs += ablationTrial(t, Variant{Binning: BinEqualCount}, cfg, 200+seed)
	}
	if tsErrs > eqErrs {
		t.Errorf("timestamp binning (%d errors) should not lose to equal-count (%d)", tsErrs, eqErrs)
	}
}

func TestVariantStrings(t *testing.T) {
	v := Variant{CombineEqualGain, DecidePlainVote, BinEqualCount}
	if got := v.String(); got != "equal-gain/plain-vote/equal-count" {
		t.Errorf("Variant.String() = %q", got)
	}
	if PaperVariant.String() != "mrc/hysteresis-vote/timestamp" {
		t.Errorf("PaperVariant.String() = %q", PaperVariant.String())
	}
}

func TestDecodeVariantValidation(t *testing.T) {
	d, _ := NewDecoder(DefaultConfig(0.01))
	mod, _ := tag.NewModulator([]bool{true}, 0, 0.01)
	s := synthSeries(defaultSynth(), mod, 1)
	if _, err := d.DecodeVariant(s, 0, 0, PaperVariant); err == nil {
		t.Error("zero payload should error")
	}
}

func TestBinEqualCount(t *testing.T) {
	ts := []float64{0.1, 1.1, 1.2, 1.3, 1.4, 5.0}
	// Window [1.0, 1.4): three in-window samples split 2/1.
	bins := binEqualCount(ts, 1.0, 0.2, 2)
	if len(bins[0]) != 2 || len(bins[1]) != 1 {
		t.Errorf("equal-count bins = %v", bins)
	}
	empty := binEqualCount(ts, 100, 0.2, 2)
	if len(empty[0]) != 0 || len(empty[1]) != 0 {
		t.Errorf("out-of-window bins should be empty: %v", empty)
	}
	// The count-then-fill bins must equal the append-grown reference,
	// nil empty bins included.
	ts = []float64{0.1, 1.0, 1.05, 1.1, 1.1, 1.2, 1.25, 1.3, 1.39, 1.4, 5.0}
	for _, c := range []struct {
		start, bitDur float64
		nbits         int
	}{{1.0, 0.2, 2}, {1.0, 0.1, 4}, {1.0, 0.05, 8}, {1.0, 0.01, 40}, {0, 1, 1}, {100, 0.2, 2}} {
		got := binEqualCount(ts, c.start, c.bitDur, c.nbits)
		want := refBinEqualCount(ts, c.start, c.bitDur, c.nbits)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("binEqualCount(%v, %v, %d) = %v, reference %v", c.start, c.bitDur, c.nbits, got, want)
		}
	}
}

// allVariants enumerates every combining × decision × binning choice.
func allVariants() []Variant {
	var vs []Variant
	for c := CombineMRC; c <= CombineBestSingle; c++ {
		for d := DecideHysteresisVote; d <= DecideBitMean; d++ {
			for b := BinTimestamp; b <= BinEqualCount; b++ {
				vs = append(vs, Variant{c, d, b})
			}
		}
	}
	return vs
}

// variantTrial synthesizes one transmission of payloadLen bits at 100 bps
// over a series built by synthSeries.
func variantTrial(cfg synthConfig, payloadLen int, seed int64) (*csi.Series, *tag.Modulator) {
	payload := randomPayload(payloadLen, seed)
	mod, err := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
	if err != nil {
		panic(err)
	}
	cfg.duration = mod.End() + 0.5
	return synthSeries(cfg, mod, seed+500), mod
}

// sameResult reports how two decodes differ, bit for bit, or "".
func sameResult(got, want *Result) string {
	switch {
	case !reflect.DeepEqual(got.Payload, want.Payload):
		return "payload differs"
	case !reflect.DeepEqual(got.Good, want.Good):
		return fmt.Sprintf("good channels %v, reference %v", got.Good, want.Good)
	case math.Float64bits(got.PreambleCorrelation) != math.Float64bits(want.PreambleCorrelation):
		return fmt.Sprintf("preamble correlation %v, reference %v", got.PreambleCorrelation, want.PreambleCorrelation)
	case math.Float64bits(got.MeasurementsPerBit) != math.Float64bits(want.MeasurementsPerBit):
		return fmt.Sprintf("measurements per bit %v, reference %v", got.MeasurementsPerBit, want.MeasurementsPerBit)
	}
	return ""
}

func TestDecodeVariantMatchesReferenceBitExact(t *testing.T) {
	d, _ := NewDecoder(DefaultConfig(0.01))
	for _, depth := range []float64{0.2, 0.04, 0.01} {
		for _, jitter := range []float64{0.3, 0.9} {
			for seed := int64(0); seed < 3; seed++ {
				cfg := defaultSynth()
				cfg.depth, cfg.jitter = depth, jitter
				s, mod := variantTrial(cfg, 45, 700+seed)
				for _, v := range allVariants() {
					got, err := d.DecodeVariant(s, mod.Start(), 45, v)
					if err != nil {
						t.Fatal(err)
					}
					want, err := d.refDecodeVariant(s, mod.Start(), 45, v)
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameResult(got, want); diff != "" {
						t.Errorf("depth %v jitter %v seed %d %v: %s", depth, jitter, seed, v, diff)
					}
				}
			}
		}
	}
}

// recordingImpairment counts the channels a decoder impairs and keeps the
// timestamps each call saw.
type recordingImpairment struct {
	calls map[ChannelID]int
	ts    map[ChannelID][]float64
}

func newRecordingImpairment() *recordingImpairment {
	return &recordingImpairment{calls: map[ChannelID]int{}, ts: map[ChannelID][]float64{}}
}

func (r *recordingImpairment) ImpairChannel(id ChannelID, ts, raw []float64) {
	r.calls[id]++
	r.ts[id] = append([]float64(nil), ts...)
}

// check requires exactly one call per (antenna, sub-channel) of s, each
// with the timestamps of s inside [start, end).
func (r *recordingImpairment) check(t *testing.T, s *csi.Series, start, end float64) {
	t.Helper()
	var want []float64
	for _, ts := range s.Timestamps() {
		if ts >= start && ts < end {
			want = append(want, ts)
		}
	}
	if len(r.calls) != s.Antennas()*s.Subchannels() {
		t.Errorf("impaired %d channels, want %d", len(r.calls), s.Antennas()*s.Subchannels())
	}
	for a := 0; a < s.Antennas(); a++ {
		for k := 0; k < s.Subchannels(); k++ {
			id := ChannelID{a, k}
			if n := r.calls[id]; n != 1 {
				t.Errorf("%v impaired %d times, want once", id, n)
			}
			if !reflect.DeepEqual(r.ts[id], want) {
				t.Errorf("%v impaired with %d timestamps, want the %d in-frame ones", id, len(r.ts[id]), len(want))
			}
		}
	}
}

func TestDecodeVariantAppliesImpairment(t *testing.T) {
	cfg := defaultSynth()
	cfg.antennas, cfg.subchannels = 2, 6
	s, mod := variantTrial(cfg, 20, 41)
	for _, v := range allVariants() {
		d, _ := NewDecoder(DefaultConfig(0.01))
		rec := newRecordingImpairment()
		d.Impair = rec
		if _, err := d.DecodeVariant(s, mod.Start(), 20, v); err != nil {
			t.Fatal(err)
		}
		rec.check(t, s, mod.Start(), mod.End())
	}
}

// refDecodeVariant is the hand-written variant pipeline DecodeVariant ran
// before it became a wrapper over the streaming core, kept verbatim as the
// bit-exactness oracle. It never applies Decoder.Impair.
func (d *Decoder) refDecodeVariant(s *csi.Series, start float64, payloadLen int, v Variant) (*Result, error) {
	if payloadLen <= 0 {
		return nil, fmt.Errorf("uplink: payload length must be positive, got %d", payloadLen)
	}
	if s.Len() == 0 {
		return nil, fmt.Errorf("uplink: empty measurement series")
	}
	nbits := nFrameBits(payloadLen)
	ts := s.Timestamps()
	lo, hi := frameRange(ts, start, start+float64(nbits)*d.cfg.BitDuration)
	if lo == hi {
		return nil, fmt.Errorf("uplink: no measurements inside the transmission window")
	}
	ts = ts[lo:hi]
	var bins [][]int
	switch v.Binning {
	case BinEqualCount:
		bins = refBinEqualCount(ts, start, d.cfg.BitDuration, nbits)
	default:
		bins = binByTimestamp(ts, start, d.cfg.BitDuration, nbits)
	}
	var stats []channelStats
	for a := 0; a < s.Antennas(); a++ {
		for k := 0; k < s.Subchannels(); k++ {
			raw, err := s.CSIChannel(a, k)
			if err != nil {
				return nil, err
			}
			stats = append(stats, analyzeChannel(ChannelID{a, k}, raw[lo:hi], ts, bins, d.cfg))
		}
	}
	sort.Slice(stats, func(i, j int) bool {
		return math.Abs(stats[i].corr) > math.Abs(stats[j].corr)
	})
	g := d.cfg.GoodSubchannels
	if v.Combining == CombineBestSingle {
		g = 1
	}
	if g > len(stats) {
		g = len(stats)
	}
	sel := stats[:g]

	n := len(sel[0].cond)
	combined := make([]float64, n)
	for _, st := range sel {
		w := st.sign / st.variance
		if v.Combining == CombineEqualGain {
			w = st.sign
		}
		for t, val := range st.cond {
			combined[t] += w * val
		}
	}

	payload := make([]bool, payloadLen)
	var measured float64
	switch v.Decision {
	case DecideBitMean:
		for b := 0; b < payloadLen; b++ {
			bin := bins[13+b]
			var sum float64
			for _, idx := range bin {
				sum += combined[idx]
			}
			payload[b] = sum > 0
			measured += float64(len(bin))
		}
	case DecidePlainVote:
		for b := 0; b < payloadLen; b++ {
			bin := bins[13+b]
			votes := make([]float64, len(bin))
			for i, idx := range bin {
				votes[i] = combined[idx]
			}
			payload[b] = dsp.MajorityVote(votes)
			measured += float64(len(bin))
		}
	default:
		mu := dsp.Mean(combined)
		sd := dsp.MeanAbsDev(combined)
		hyst := dsp.NewHysteresis(mu, sd)
		decisions := make([]float64, n)
		for t, val := range combined {
			if hyst.Update(val) {
				decisions[t] = 1
			} else {
				decisions[t] = -1
			}
		}
		for b := 0; b < payloadLen; b++ {
			bin := bins[13+b]
			votes := make([]float64, len(bin))
			for i, idx := range bin {
				votes[i] = decisions[idx]
			}
			payload[b] = dsp.MajorityVote(votes)
			measured += float64(len(bin))
		}
	}
	res := &Result{
		Payload:             payload,
		PreambleCorrelation: math.Abs(sel[0].corr),
		MeasurementsPerBit:  measured / float64(payloadLen),
	}
	for _, st := range sel {
		res.Good = append(res.Good, st.id)
	}
	return res, nil
}

// refBinEqualCount is the append-grown equal-count binning binEqualCount
// replaced, kept verbatim as its oracle.
func refBinEqualCount(ts []float64, start, bitDur float64, nbits int) [][]int {
	end := start + float64(nbits)*bitDur
	var inWindow []int
	for i, t := range ts {
		if t >= start && t < end {
			inWindow = append(inWindow, i)
		}
	}
	bins := make([][]int, nbits)
	if len(inWindow) == 0 {
		return bins
	}
	per := float64(len(inWindow)) / float64(nbits)
	for j, idx := range inWindow {
		b := int(float64(j) / per)
		if b >= nbits {
			b = nbits - 1
		}
		bins[b] = append(bins[b], idx)
	}
	return bins
}
