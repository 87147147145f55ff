package uplink

import (
	"testing"

	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/tag"
)

// longRangeTrial runs one long-range transaction at a synthetic depth and
// returns the bit error count.
func longRangeTrial(t *testing.T, depth float64, L, payloadLen int, seed int64) int {
	t.Helper()
	payload := randomPayload(payloadLen, seed)
	code0, code1, err := dsp.WalshPair(L)
	if err != nil {
		t.Fatal(err)
	}
	chips := tag.ExpandWithCodes(payload, code0, code1)
	frame := make([]bool, 0, 26+len(chips))
	frame = append(frame, tag.Preamble...)
	frame = append(frame, chips...)
	frame = append(frame, tag.Postamble...)
	const chipDur = 0.005 // 5 ms per chip: 5 packets per chip at 1000 pkt/s
	mod, err := tag.NewModulator(frame, 1.0, chipDur)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultSynth()
	cfg.depth = depth
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, seed+100)
	d, _ := NewDecoder(DefaultConfig(chipDur))
	res, err := d.DecodeLongRange(s, mod.Start(), payloadLen, code0, code1)
	if err != nil {
		t.Fatal(err)
	}
	return countBitErrors(res.Payload, payload)
}

func TestLongRangeDecodesWeakSignal(t *testing.T) {
	// A depth where per-chip decisions would be hopeless should decode
	// cleanly with L=20 correlation.
	if errs := longRangeTrial(t, 0.02, 20, 16, 1); errs > 1 {
		t.Errorf("long-range L=20 decode errors = %d/16", errs)
	}
}

func TestLongRangeLongerCodesReachDeeper(t *testing.T) {
	// At a very weak depth, L=4 should fail more often than L=40.
	var shortErrs, longErrs int
	for seed := int64(0); seed < 4; seed++ {
		shortErrs += longRangeTrial(t, 0.008, 4, 12, 10+seed)
		longErrs += longRangeTrial(t, 0.008, 40, 12, 10+seed)
	}
	if longErrs >= shortErrs {
		t.Errorf("L=40 errors (%d) should be below L=4 errors (%d)", longErrs, shortErrs)
	}
}

func TestLongRangeValidation(t *testing.T) {
	d, _ := NewDecoder(DefaultConfig(0.01))
	code0, code1, _ := dsp.WalshPair(4)
	payload := randomPayload(8, 1)
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 0, 0.01)
	s := synthSeries(defaultSynth(), mod, 2)
	if _, err := d.DecodeLongRange(s, 0, 0, code0, code1); err == nil {
		t.Error("zero payload should error")
	}
	if _, err := d.DecodeLongRange(s, 0, 8, code0, code1[:2]); err == nil {
		t.Error("mismatched code lengths should error")
	}
	if _, err := d.DecodeLongRange(s, 0, 8, nil, nil); err == nil {
		t.Error("empty codes should error")
	}
	if _, err := d.DecodeLongRange(&csi.Series{}, 0, 8, code0, code1); err == nil {
		t.Error("empty series should error")
	}
}

func TestLongRangeMarginsPopulated(t *testing.T) {
	payload := randomPayload(8, 3)
	code0, code1, _ := dsp.WalshPair(20)
	chips := tag.ExpandWithCodes(payload, code0, code1)
	frame := append(append(append([]bool{}, tag.Preamble...), chips...), tag.Postamble...)
	mod, _ := tag.NewModulator(frame, 1.0, 0.005)
	cfg := defaultSynth()
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 4)
	d, _ := NewDecoder(DefaultConfig(0.005))
	res, err := d.DecodeLongRange(s, mod.Start(), len(payload), code0, code1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Margins) != len(payload) {
		t.Fatalf("margins length = %d, want %d", len(res.Margins), len(payload))
	}
	for i, m := range res.Margins {
		if m < 0 || m > 1 {
			t.Errorf("margin[%d] = %v outside [0,1]", i, m)
		}
	}
	if len(res.Good) == 0 {
		t.Error("good channel list empty")
	}
}

func TestDecodeLongRangeAppliesImpairment(t *testing.T) {
	const L, payloadLen, chipDur = 4, 6, 0.005
	payload := randomPayload(payloadLen, 3)
	code0, code1, err := dsp.WalshPair(L)
	if err != nil {
		t.Fatal(err)
	}
	chips := tag.ExpandWithCodes(payload, code0, code1)
	frame := append(append(append([]bool{}, tag.Preamble...), chips...), tag.Postamble...)
	mod, err := tag.NewModulator(frame, 1.0, chipDur)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultSynth()
	cfg.antennas, cfg.subchannels = 2, 5
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 9)
	d, _ := NewDecoder(DefaultConfig(chipDur))
	rec := newRecordingImpairment()
	d.Impair = rec
	if _, err := d.DecodeLongRange(s, mod.Start(), payloadLen, code0, code1); err != nil {
		t.Fatal(err)
	}
	rec.check(t, s, mod.Start(), mod.End())
}
