package uplink

// Fuzz targets for the uplink decoders. The harness deserializes arbitrary
// byte streams into measurement series — including the hostile shapes a
// real capture pipeline can produce: non-finite amplitudes, backwards
// timestamps, and jagged (shape-malformed) measurements. Whatever the
// input, every decoder entry point must return a (result, error) pair;
// a panic is the only failure.
//
// Run the smoke pass with `make fuzz` (10s per target) or explore longer
// with e.g. `go test -fuzz=FuzzDecodeCSI -fuzztime=5m ./internal/uplink/`.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/csi"
	"repro/internal/dsp"
)

// fuzzAmplitude maps one byte to a channel amplitude, reserving the top
// byte values for the non-finite corners the fuzzer should reach directly.
func fuzzAmplitude(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	default:
		return float64(b) * 0.1
	}
}

// fuzzSeries builds a measurement series from an arbitrary byte stream.
// Every input yields some series; certain byte positions steer the stream
// toward malformed structure (negative time steps, truncated CSI rows,
// missing RSSI entries) so the decoders' validation paths are exercised.
func fuzzSeries(data []byte, ants, subs int) *csi.Series {
	s := &csi.Series{}
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	n := 4 + len(data)/(ants*subs+2)
	if n > 512 {
		n = 512
	}
	now := 0.0
	for p := 0; p < n; p++ {
		dt := float64(next()) * 1e-4
		if next()%17 == 0 {
			dt = -dt // non-monotonic timestamps
		}
		now += dt
		m := csi.Measurement{Timestamp: now}
		rows := ants
		if next()%23 == 0 {
			rows = int(next()) % (ants + 2) // jagged antenna count
		}
		m.CSI = make([][]float64, rows)
		m.RSSI = make([]float64, rows)
		for a := range m.CSI {
			cols := subs
			if next()%29 == 0 {
				cols = int(next()) % (subs + 2) // jagged sub-channel count
			}
			m.CSI[a] = make([]float64, cols)
			for k := range m.CSI[a] {
				m.CSI[a][k] = fuzzAmplitude(next())
			}
			m.RSSI[a] = fuzzAmplitude(next())
		}
		s.Append(m)
	}
	return s
}

// seedBytes renders a clean two-level modulation pattern in the harness's
// byte format, sized like the decoder tests' synthetic vectors (enough
// packets per bit for the binning and preamble paths to engage).
func seedBytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		switch {
		case i%7 == 0:
			out[i] = 10 // small time step, keeps timestamps dense
		case (i/40)%2 == 0:
			out[i] = 120 // high level
		default:
			out[i] = 80 // low level
		}
	}
	return out
}

func FuzzDecodeCSI(f *testing.F) {
	// Seeds mirror the unit-test vectors: 3 antennas × 30 sub-channels at
	// ~1000 pkt/s (decoder_test.go's defaultSynth), plus degenerate shapes.
	f.Add(seedBytes(4096), uint8(3), uint8(30), 0.0, uint8(90))
	f.Add(seedBytes(512), uint8(1), uint8(1), 0.01, uint8(1))
	f.Add([]byte{255, 254, 253, 0, 1, 2}, uint8(2), uint8(4), math.NaN(), uint8(10))
	f.Add([]byte{}, uint8(3), uint8(30), -1.0, uint8(20))
	// Every measurement with zero antennas: the record layout is
	// [dt, sign, jagged-check, row-count], so 23 trips the jagged branch
	// (23%23 == 0) and the following 0 sets rows = 0 — the empty-selection
	// path that once reached dsp.MinMax with nothing selected.
	f.Add(bytes.Repeat([]byte{10, 1, 23, 0}, 128), uint8(3), uint8(30), 0.0, uint8(16))
	// Alternating zero-antenna and jagged single-antenna rows.
	f.Add(bytes.Repeat([]byte{10, 1, 23, 0, 10, 1, 23, 1, 120, 80}, 64), uint8(2), uint8(4), 0.0, uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, antsRaw, subsRaw uint8, start float64, payloadRaw uint8) {
		ants := 1 + int(antsRaw)%4
		subs := 1 + int(subsRaw)%32
		payloadLen := 1 + int(payloadRaw)
		s := fuzzSeries(data, ants, subs)
		d, err := NewDecoder(DefaultConfig(0.01))
		if err != nil {
			t.Fatal(err)
		}
		if res, err := d.DecodeCSI(s, start, payloadLen); err == nil && len(res.Payload) != payloadLen {
			t.Errorf("DecodeCSI returned %d payload bits, want %d", len(res.Payload), payloadLen)
		}
		if res, err := d.DecodeRSSI(s, start, payloadLen); err == nil && len(res.Payload) != payloadLen {
			t.Errorf("DecodeRSSI returned %d payload bits, want %d", len(res.Payload), payloadLen)
		}
		// Channel indices straight from the raw fuzz bytes: out-of-range
		// values must come back as errors.
		_, _ = d.DecodeSingleChannel(s, start, payloadLen, int(antsRaw)-2, int(subsRaw)-2)
		_, _ = d.NormalizedChannel(s, int(antsRaw)%4, int(subsRaw)%32)
	})
}

// FuzzStreamPush drives the streaming decoder with the same hostile byte
// streams: out-of-order and duplicate timestamps, NaN amplitudes, and
// jagged shapes. The contract under fuzz is (result, error) — malformed
// input surfaces as a Push or Flush error, never a panic — and on fully
// clean runs the bit count matches the payload length.
func FuzzStreamPush(f *testing.F) {
	f.Add(seedBytes(4096), uint8(3), uint8(30), 0.0, uint8(90), false)
	f.Add(seedBytes(512), uint8(1), uint8(1), 0.01, uint8(1), true)
	f.Add([]byte{255, 254, 253, 0, 1, 2}, uint8(2), uint8(4), math.NaN(), uint8(10), false)
	// Non-monotonic time steps (17 trips the backwards-dt branch): the
	// Push ordering check must reject these with an error.
	f.Add(bytes.Repeat([]byte{10, 17, 0, 0}, 64), uint8(3), uint8(30), 0.0, uint8(16), false)
	// Zero time steps make duplicate timestamps: legal (non-decreasing),
	// and the stream must decode them identically to the batch path.
	f.Add(bytes.Repeat([]byte{0, 1, 120, 80}, 64), uint8(2), uint8(4), 0.0, uint8(8), true)
	f.Fuzz(func(t *testing.T, data []byte, antsRaw, subsRaw uint8, start float64, payloadRaw uint8, rssi bool) {
		ants := 1 + int(antsRaw)%4
		subs := 1 + int(subsRaw)%32
		payloadLen := 1 + int(payloadRaw)
		mode := StreamCSI
		if rssi {
			mode = StreamRSSI
		}
		s := fuzzSeries(data, ants, subs)
		d, err := NewDecoder(DefaultConfig(0.01))
		if err != nil {
			t.Fatal(err)
		}
		sd, err := d.NewStream(start, payloadLen, mode)
		if err != nil {
			t.Fatal(err)
		}
		var bits []BitDecision
		pushErr := false
		for _, m := range s.Measurements {
			out, err := sd.Push(m)
			if err != nil {
				pushErr = true
				// Errors are sticky: every later push must fail too.
				if _, err := sd.Push(m); err == nil {
					t.Fatal("stream accepted a push after an error")
				}
				break
			}
			bits = append(bits, out...)
		}
		res, err := sd.Flush()
		if pushErr {
			if err == nil {
				t.Fatal("Flush succeeded on a poisoned stream")
			}
			return
		}
		if err == nil {
			if len(res.Payload) != payloadLen {
				t.Errorf("stream decode returned %d payload bits, want %d", len(res.Payload), payloadLen)
			}
			if got := len(sd.Bits()); got != payloadLen {
				t.Errorf("stream emitted %d bit decisions, want %d", got, payloadLen)
			}
		}
		_ = bits
	})
}

// TestDecodeEmptySelection pins the empty-selection behaviour the fuzz
// seeds above probe: a series whose measurements carry no antennas must
// come back as a decode error from every entry point, never a panic.
func TestDecodeEmptySelection(t *testing.T) {
	s := &csi.Series{}
	for i := 0; i < 64; i++ {
		s.Append(csi.Measurement{Timestamp: float64(i) * 1e-3})
	}
	d, err := NewDecoder(DefaultConfig(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecodeCSI(s, 0, 8); err == nil {
		t.Error("DecodeCSI with zero antennas should error")
	}
	if _, err := d.DecodeRSSI(s, 0, 8); err == nil {
		t.Error("DecodeRSSI with zero antennas should error")
	}
	if _, err := d.DecodeSingleChannel(s, 0, 8, 0, 0); err == nil {
		t.Error("DecodeSingleChannel with zero antennas should error")
	}
}

func FuzzDecodeLongRange(f *testing.F) {
	f.Add(seedBytes(2048), uint8(3), uint8(8), uint8(12), uint8(2), 0.0)
	f.Add([]byte{255, 253, 7}, uint8(1), uint8(1), uint8(1), uint8(0), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, antsRaw, subsRaw, payloadRaw, lRaw uint8, start float64) {
		ants := 1 + int(antsRaw)%3
		subs := 1 + int(subsRaw)%8
		payloadLen := 1 + int(payloadRaw)%32
		L := 2 << (int(lRaw) % 3) // 2, 4, 8 chips per bit
		code0, code1, err := dsp.WalshPair(L)
		if err != nil {
			t.Fatal(err)
		}
		s := fuzzSeries(data, ants, subs)
		d, err := NewDecoder(DefaultConfig(0.01))
		if err != nil {
			t.Fatal(err)
		}
		if res, err := d.DecodeLongRange(s, start, payloadLen, code0, code1); err == nil &&
			len(res.Payload) != payloadLen {
			t.Errorf("DecodeLongRange returned %d payload bits, want %d", len(res.Payload), payloadLen)
		}
		// Mismatched code lengths must error, never index out of range.
		if _, err := d.DecodeLongRange(s, start, payloadLen, code0, code1[:L-1]); err == nil {
			t.Error("mismatched code lengths should error")
		}
	})
}

// FuzzDecodeVariant pins every pipeline variant, decoded through the
// streaming core, bit for bit to the hand-written reference pipeline
// (refDecodeVariant) over synthSeries transmissions of fuzzed depth,
// timing jitter and seed. Seeds live in testdata/fuzz/FuzzDecodeVariant.
func FuzzDecodeVariant(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, depth, jitter float64, variantBits uint8) {
		// synthSeries steps time by interval·(1 + jitter·(u − 0.5)), so
		// jitter must stay below 2 for time to advance.
		if math.IsNaN(depth) || math.IsInf(depth, 0) {
			depth = 0.2
		}
		if math.IsNaN(jitter) || math.IsInf(jitter, 0) {
			jitter = 0.3
		}
		depth = math.Mod(math.Abs(depth), 1)
		jitter = math.Mod(math.Abs(jitter), 1.8)
		v := Variant{
			Combining: Combining(variantBits % 3),
			Decision:  Decision(variantBits / 3 % 3),
			Binning:   Binning(variantBits / 9 % 2),
		}
		cfg := defaultSynth()
		cfg.subchannels = 8
		cfg.depth, cfg.jitter = depth, jitter
		const payloadLen = 24
		s, mod := variantTrial(cfg, payloadLen, seed)
		d, err := NewDecoder(DefaultConfig(0.01))
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := d.DecodeVariant(s, mod.Start(), payloadLen, v)
		want, wantErr := d.refDecodeVariant(s, mod.Start(), payloadLen, v)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%v: error %v, reference error %v", v, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if diff := sameResult(got, want); diff != "" {
			t.Errorf("%v: %s", v, diff)
		}
	})
}
