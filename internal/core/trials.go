package core

import (
	"fmt"

	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tag"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// This file provides the single-trial workhorses the evaluation harness
// (internal/eval) sweeps over.

// UplinkTrialSpec configures one uplink transmission trial.
type UplinkTrialSpec struct {
	// System config (seed, geometry, models).
	Config Config
	// BitRate of the tag, bits/second.
	BitRate float64
	// HelperPacketsPerSecond is the CBR injection rate at the helper
	// (the paper inserts delays between injected packets to set this).
	HelperPacketsPerSecond float64
	// PayloadLen in bits (the paper's runs use 90).
	PayloadLen int
	// Mode selects CSI or RSSI decoding.
	Mode uplink.StreamMode
	// UseBeacons replaces CBR data traffic with AP beacons at
	// HelperPacketsPerSecond (Fig. 16).
	UseBeacons bool
	// Bursty replaces CBR with heavy-tailed on/off traffic at roughly
	// HelperPacketsPerSecond, exercising the timestamp-binning logic.
	Bursty bool
}

// UplinkTrialResult is one trial's outcome.
type UplinkTrialResult struct {
	// Sent is the transmitted payload.
	Sent []bool
	// Result is the decoder output.
	Result *uplink.Result
	// BitErrors counts payload mismatches.
	BitErrors int
	// Detected reports whether the preamble correlation cleared the
	// detection threshold.
	Detected bool
	// Metrics is the trial System's metrics snapshot, taken after the
	// decode. Aggregate across trials with obs.Registry.Merge.
	Metrics *obs.Snapshot
}

// startHelperTraffic wires the spec's traffic source to the helper.
func startHelperTraffic(sys *System, spec UplinkTrialSpec) error {
	dst := wifi.MAC{0x02, 0, 0, 0, 0, 9}
	switch {
	case spec.UseBeacons:
		return (&wifi.BeaconSource{
			Station:  sys.Helper,
			Interval: 1 / spec.HelperPacketsPerSecond,
		}).Start()
	case spec.Bursty:
		// Bursts of ~20 packets with gaps sized to hit the average
		// rate.
		const burst = 20.0
		const inBurst = 0.0005
		gap := burst/spec.HelperPacketsPerSecond - burst*inBurst
		if gap < 0.001 {
			gap = 0.001
		}
		return (&wifi.BurstySource{
			Station: sys.Helper, Dst: dst, Payload: 200,
			MeanBurst: burst, MeanGap: gap, InBurstInterval: inBurst,
			Rnd: rng.New(spec.Config.Seed + 991),
		}).Start()
	default:
		return (&wifi.CBRSource{
			Station:  sys.Helper,
			Dst:      dst,
			Payload:  200,
			Interval: 1 / spec.HelperPacketsPerSecond,
		}).Start()
	}
}

// RandomPayload returns a deterministic pseudo-random payload.
func RandomPayload(n int, seed int64) []bool {
	rnd := rng.New(seed)
	out := make([]bool, n)
	for i := range out {
		out[i] = rnd.Bool()
	}
	return out
}

// CountBitErrors compares two payloads; missing decoded bits count as
// errors.
func CountBitErrors(got, want []bool) int {
	errs := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			errs++
		}
	}
	return errs
}

// runTrial is the one uplink trial runner: validate the spec, build the
// system, start the helper traffic, transmit frame(payload) at 1.0 s, run
// half a second past the frame, and decode the reader's series with
// decode.
func runTrial(spec UplinkTrialSpec, frame func(payload []bool) []bool,
	decode func(dec *uplink.Decoder, s *csi.Series, start float64) (*uplink.Result, error)) (*UplinkTrialResult, error) {
	if spec.BitRate <= 0 || spec.PayloadLen <= 0 || spec.HelperPacketsPerSecond <= 0 {
		return nil, fmt.Errorf("core: invalid trial spec: rate %v, payload %d, helper rate %v",
			spec.BitRate, spec.PayloadLen, spec.HelperPacketsPerSecond)
	}
	sys, err := NewSystem(spec.Config)
	if err != nil {
		return nil, err
	}
	if err := startHelperTraffic(sys, spec); err != nil {
		return nil, err
	}
	payload := RandomPayload(spec.PayloadLen, spec.Config.Seed+7777)
	const txStart = 1.0 // warm-up so the conditioning window has context
	mod, err := sys.TransmitUplink(frame(payload), txStart, spec.BitRate)
	if err != nil {
		return nil, err
	}
	sys.Run(mod.End() + 0.5)
	dec, err := sys.UplinkDecoder(spec.BitRate)
	if err != nil {
		return nil, err
	}
	res, err := decode(dec, sys.Series(), mod.Start())
	if err != nil {
		return nil, err
	}
	return &UplinkTrialResult{
		Sent:      payload,
		Result:    res,
		BitErrors: CountBitErrors(res.Payload, payload),
		Detected:  dec.Detected(res),
		Metrics:   sys.Metrics().Snapshot(),
	}, nil
}

// RunUplinkTrial executes one tag transmission over helper traffic and
// decodes it in spec.Mode: build system → warm up traffic → transmit →
// decode.
func RunUplinkTrial(spec UplinkTrialSpec) (*UplinkTrialResult, error) {
	return runTrial(spec, tag.FrameBits, func(dec *uplink.Decoder, s *csi.Series, start float64) (*uplink.Result, error) {
		if spec.Mode == uplink.StreamRSSI {
			return dec.DecodeRSSI(s, start, spec.PayloadLen)
		}
		return dec.DecodeCSI(s, start, spec.PayloadLen)
	})
}

// RunUplinkVariantTrial is RunUplinkTrial decoding the CSI with an
// ablated pipeline variant instead of the paper's.
func RunUplinkVariantTrial(spec UplinkTrialSpec, v uplink.Variant) (*UplinkTrialResult, error) {
	return runTrial(spec, tag.FrameBits, func(dec *uplink.Decoder, s *csi.Series, start float64) (*uplink.Result, error) {
		return dec.DecodeVariant(s, start, spec.PayloadLen, v)
	})
}

// RunSingleChannelTrial is RunUplinkTrial but decoding from exactly one
// (antenna, sub-channel) pair — the Fig. 5 / Fig. 11 baseline.
func RunSingleChannelTrial(spec UplinkTrialSpec, antenna, subchannel int) (*UplinkTrialResult, error) {
	return runTrial(spec, tag.FrameBits, func(dec *uplink.Decoder, s *csi.Series, start float64) (*uplink.Result, error) {
		return dec.DecodeSingleChannel(s, start, spec.PayloadLen, antenna, subchannel)
	})
}

// RunLongRangeTrial executes one coded long-range transmission (§3.4) with
// orthogonal codes of length codeLen and returns the bit error count.
func RunLongRangeTrial(spec UplinkTrialSpec, codeLen int) (*UplinkTrialResult, error) {
	code0, code1, err := dsp.WalshPair(codeLen)
	if err != nil {
		return nil, err
	}
	frame := func(payload []bool) []bool {
		chips := tag.ExpandWithCodes(payload, code0, code1)
		f := make([]bool, 0, 26+len(chips))
		f = append(f, tag.Preamble...)
		f = append(f, chips...)
		return append(f, tag.Postamble...)
	}
	return runTrial(spec, frame, func(dec *uplink.Decoder, s *csi.Series, start float64) (*uplink.Result, error) {
		res, err := dec.DecodeLongRange(s, start, spec.PayloadLen, code0, code1)
		if err != nil {
			return nil, err
		}
		// The chip correlator has no preamble score; report full
		// correlation so the trial counts as detected.
		return &uplink.Result{Payload: res.Payload, Good: res.Good, PreambleCorrelation: 1}, nil
	})
}
