package main

//wblint:file-ignore DT005 spans carry wall-clock times into the traced run's per-layer output; no trial input depends on them

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// Capture generation: every workload's input is simulated from the
// workload seed with the repo's own simulator, so the program under test
// receives only generated measurements and the benchmark ships no data.

const (
	// helperPacketsPerSecond is the CBR helper rate for every capture.
	helperPacketsPerSecond = 1000
	// frameStart is when the tag starts its frame, seconds into the
	// capture; the second before it is warm-up traffic.
	frameStart = 1.0
	// sessionLead is how much of the capture before the frame a trimmed
	// session carries.
	sessionLead = 0.05
	// closeSlack is simulated past the frame end so the frame-closing
	// measurement exists even if a packet or two around it collide.
	closeSlack = 0.02
)

// captureSpec shapes one simulated capture.
type captureSpec struct {
	payloadLen int
	bitRate    float64
	distanceCM float64
	// untilS is how far to simulate; 0 stops tailS past the frame end
	// (closeSlack when tailS is 0 too).
	untilS, tailS float64
	// trim cuts the session to [frame start - sessionLead, closing
	// measurement]; otherwise the whole capture is the session.
	trim bool
}

// capture is one session's measurements plus everything needed to check
// and to replay it.
type capture struct {
	meas     []csi.Measurement
	params   serve.SessionParams
	closeIdx int // index in meas of the measurement that closes the frame
	ref      reference
	cfg      core.Config
	mod      *tag.Modulator
}

// reference is the batch decoder's answer for one session: what every
// served copy of it must reproduce exactly.
type reference struct {
	payload   string
	corr, mpb float64
	bits      []uplink.BitDecision
}

// simulate builds and runs one system: the shared first half of a
// capture and of a sim trial. Spans go under parent.
func simulate(seed int64, spec captureSpec, rec *recorder, parent spanRef, unit int) (*core.System, *tag.Modulator, []bool, error) {
	cfg := core.Config{Seed: seed, TagReaderDistance: units.Centimeters(spec.distanceCM)}
	sp := rec.begin("core.build", parent, unit)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	src := &wifi.CBRSource{
		Station:  sys.Helper,
		Dst:      wifi.MAC{0x02, 0, 0, 0, 0, 9},
		Payload:  200,
		Interval: 1.0 / helperPacketsPerSecond,
	}
	if err := src.Start(); err != nil {
		return nil, nil, nil, err
	}
	sent := core.RandomPayload(spec.payloadLen, seed+7777)
	mod, err := sys.TransmitUplink(tag.FrameBits(sent), frameStart, spec.bitRate)
	if err != nil {
		return nil, nil, nil, err
	}
	sp.end(nil)
	until := spec.untilS
	if until <= 0 {
		tail := spec.tailS
		if tail <= 0 {
			tail = closeSlack
		}
		until = mod.End() + tail
	}
	sp = rec.begin("sim.run", parent, unit)
	sys.Run(until)
	if sp.on() {
		snap := sys.Metrics().Snapshot()
		sp.end(map[string]float64{
			"events":    counterValue(snap, "sim.events_dispatched"),
			"delivered": counterValue(snap, "wifi.frames_delivered"),
		})
	}
	return sys, mod, sent, nil
}

// counterValue reads one counter from an obs snapshot (0 when absent).
func counterValue(s *obs.Snapshot, name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return float64(c.Value)
		}
	}
	return 0
}

// newCapture simulates capture idx of a workload and decodes its
// reference.
func newCapture(seed int64, idx int, spec captureSpec, rec *recorder, parent spanRef) (*capture, error) {
	tseed := rng.TrialSeed(seed, idx)
	sys, mod, _, err := simulate(tseed, spec, rec, parent, idx)
	if err != nil {
		return nil, err
	}
	all := sys.Series().Measurements
	closeIdx := -1
	for i, m := range all {
		if m.Timestamp >= mod.End() {
			closeIdx = i
			break
		}
	}
	if closeIdx < 0 {
		return nil, fmt.Errorf("capture %d: no measurement closes the frame ending at %.3fs", idx, mod.End())
	}
	meas := all
	if spec.trim {
		lo := 0
		for lo < len(all) && all[lo].Timestamp < mod.Start()-sessionLead {
			lo++
		}
		meas = all[lo : closeIdx+1]
		closeIdx -= lo
	}
	series := &csi.Series{Measurements: meas}
	c := &capture{
		meas: meas,
		params: serve.SessionParams{
			Mode:        uplink.StreamCSI,
			BitRate:     spec.bitRate,
			Start:       mod.Start(),
			PayloadLen:  spec.payloadLen,
			Antennas:    series.Antennas(),
			Subchannels: series.Subchannels(),
		},
		closeIdx: closeIdx,
		cfg:      sys.Config(),
		mod:      mod,
	}
	c.ref, err = batchReference(series, c.params, rec, parent, idx)
	if err != nil {
		return nil, fmt.Errorf("capture %d: %w", idx, err)
	}
	return c, nil
}

// batchReference decodes a session the way the batch decoder does. The
// bit lines' per-bit measurement counts come from a second, streamed
// decode of the same series, which must agree with the batch payload.
func batchReference(series *csi.Series, p serve.SessionParams, rec *recorder, parent spanRef, unit int) (reference, error) {
	var ref reference
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(1 / p.BitRate))
	if err != nil {
		return ref, err
	}
	sp := rec.begin("uplink.decode", parent, unit)
	res, err := dec.DecodeCSI(series, p.Start, p.PayloadLen)
	sp.end(nil)
	if err != nil {
		return ref, fmt.Errorf("batch decode: %w", err)
	}
	ref.payload = bitString(res.Payload)
	ref.corr, ref.mpb = res.PreambleCorrelation, res.MeasurementsPerBit
	sd, err := dec.NewStream(p.Start, p.PayloadLen, uplink.StreamCSI)
	if err != nil {
		return ref, err
	}
	for _, m := range series.Measurements {
		if _, err := sd.Push(m); err != nil {
			return ref, fmt.Errorf("reference stream: %w", err)
		}
	}
	if _, err := sd.Flush(); err != nil {
		return ref, fmt.Errorf("reference stream: %w", err)
	}
	ref.bits = append([]uplink.BitDecision(nil), sd.Bits()...)
	if got := decisionString(ref.bits); got != ref.payload {
		return ref, fmt.Errorf("streamed reference %s disagrees with batch %s", got, ref.payload)
	}
	return ref, nil
}

// check compares one served session with the reference: every streamed
// bit line (index, value, measurement count) and the final payload,
// correlation and measurements-per-bit must match exactly.
func (ref *reference) check(bits []uplink.BitDecision, payload string, corr, mpb float64) error {
	if len(bits) != len(ref.bits) {
		return fmt.Errorf("%d bit lines, batch decoded %d bits", len(bits), len(ref.bits))
	}
	for i, b := range bits {
		if b != ref.bits[i] {
			return fmt.Errorf("bit line %d is %+v, batch decode gives %+v", i, b, ref.bits[i])
		}
	}
	if payload != ref.payload {
		return fmt.Errorf("final payload %s, batch decoded %s", payload, ref.payload)
	}
	if math.Float64bits(corr) != math.Float64bits(ref.corr) || math.Float64bits(mpb) != math.Float64bits(ref.mpb) {
		return fmt.Errorf("final corr=%v mpb=%v, batch decode gives corr=%v mpb=%v", corr, mpb, ref.corr, ref.mpb)
	}
	return nil
}

// bitString renders bits the way the done line does.
func bitString(bits []bool) string {
	var sb strings.Builder
	for _, b := range bits {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// decisionString renders streamed bit decisions the same way.
func decisionString(bits []uplink.BitDecision) string {
	out := make([]bool, len(bits))
	for i, b := range bits {
		out[i] = b.Bit
	}
	return bitString(out)
}

// generate simulates n captures on a parallel engine of the given width,
// each under a "capture" span inside one "setup.captures" span (their
// ratio is the engine's busy share).
func generate(seed int64, n, workers int, spec captureSpec, rec *recorder) ([]*capture, error) {
	caps := make([]*capture, n)
	parent := rec.begin("setup.captures", spanRef{}, -1)
	err := parallel.New(workers).ForEach(n, func(i int) error {
		sp := rec.begin("capture", parent, i)
		c, err := newCapture(seed, i, spec, rec, sp)
		sp.end(nil)
		caps[i] = c
		return err
	})
	parent.end(map[string]float64{"workers": float64(workers)})
	if err != nil {
		return nil, err
	}
	return caps, nil
}
