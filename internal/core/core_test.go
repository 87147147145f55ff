package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if cfg.TagReaderDistance != units.Centimeters(5) {
		t.Errorf("default tag-reader distance = %v", cfg.TagReaderDistance)
	}
	if cfg.HelperTagDistance != 3 {
		t.Errorf("default helper-tag distance = %v", cfg.HelperTagDistance)
	}
	if cfg.ReaderPower != 16 {
		t.Errorf("default reader power = %v", cfg.ReaderPower)
	}
	if sys.Channel.Subchannels() != 30 || sys.Channel.Antennas() != 3 {
		t.Errorf("channel shape = (%d, %d)", sys.Channel.Subchannels(), sys.Channel.Antennas())
	}
}

func TestSystemCollectsMeasurements(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	(&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start()
	sys.Run(1)
	n := sys.Series().Len()
	if n < 900 || n > 1100 {
		t.Errorf("collected %d measurements in 1 s at 1000 pkt/s", n)
	}
	sys.ResetSeries()
	if sys.Series().Len() != 0 {
		t.Error("ResetSeries should clear measurements")
	}
}

func TestSystemIgnoresReaderOwnPackets(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	(&wifi.CBRSource{Station: sys.Reader, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start()
	sys.Run(0.5)
	if sys.Series().Len() != 0 {
		t.Errorf("reader measured %d of its own packets", sys.Series().Len())
	}
}

func TestMeasureAllStations(t *testing.T) {
	run := func(all bool) int {
		sys, err := NewSystem(Config{Seed: 4, MeasureAllStations: all})
		if err != nil {
			t.Fatal(err)
		}
		other := sys.AddStation("client", 16, 2)
		(&wifi.CBRSource{Station: other, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start()
		sys.Run(0.5)
		return sys.Series().Len()
	}
	if n := run(false); n != 0 {
		t.Errorf("helper-only mode measured %d foreign packets", n)
	}
	if n := run(true); n < 400 {
		t.Errorf("measure-all mode collected only %d measurements", n)
	}
}

func TestTransmitUplinkValidation(t *testing.T) {
	sys, _ := NewSystem(Config{Seed: 5})
	if _, err := sys.TransmitUplink([]bool{true}, 0, 0); err == nil {
		t.Error("zero bit rate should error")
	}
	if _, err := sys.UplinkDecoder(0); err == nil {
		t.Error("zero bit rate decoder should error")
	}
}

func TestUplinkTrialCleanAt5cm(t *testing.T) {
	res, err := RunUplinkTrial(UplinkTrialSpec{
		Config:                 Config{Seed: 6},
		BitRate:                100,
		HelperPacketsPerSecond: 1000,
		PayloadLen:             90,
		Mode:                   uplink.StreamCSI,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != 0 {
		t.Errorf("5 cm CSI trial: %d bit errors", res.BitErrors)
	}
	if !res.Detected {
		t.Error("5 cm trial should clear the detection threshold")
	}
}

func TestUplinkTrialRSSIAt5cm(t *testing.T) {
	res, err := RunUplinkTrial(UplinkTrialSpec{
		Config:                 Config{Seed: 7},
		BitRate:                100,
		HelperPacketsPerSecond: 1000,
		PayloadLen:             90,
		Mode:                   uplink.StreamRSSI,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors > 1 {
		t.Errorf("5 cm RSSI trial: %d bit errors", res.BitErrors)
	}
}

func TestUplinkTrialFailsFar(t *testing.T) {
	// Plain (uncoded) decoding at 3 m should be hopeless (Fig. 6).
	res, err := RunUplinkTrial(UplinkTrialSpec{
		Config:                 Config{Seed: 8, TagReaderDistance: 3},
		BitRate:                100,
		HelperPacketsPerSecond: 1000,
		PayloadLen:             90,
		Mode:                   uplink.StreamCSI,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors < 10 {
		t.Errorf("3 m plain decode should fail badly, got %d/90 errors", res.BitErrors)
	}
}

func TestUplinkTrialValidation(t *testing.T) {
	if _, err := RunUplinkTrial(UplinkTrialSpec{}); err == nil {
		t.Error("zero spec should error")
	}
	if _, err := RunUplinkTrial(UplinkTrialSpec{BitRate: 100, PayloadLen: 10}); err == nil {
		t.Error("missing helper rate should error")
	}
}

func TestBeaconOnlyTrial(t *testing.T) {
	// Fig. 16: the uplink works from beacons alone (RSSI decoding).
	res, err := RunUplinkTrial(UplinkTrialSpec{
		Config:                 Config{Seed: 9},
		BitRate:                5,
		HelperPacketsPerSecond: 50, // 50 beacons/s
		PayloadLen:             20,
		Mode:                   uplink.StreamRSSI,
		UseBeacons:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A couple of errors out of 20 bits is within the sparse-measurement
	// floor for a single quick trial; Fig. 16's sweep averages this out.
	if res.BitErrors > 2 {
		t.Errorf("beacon-only trial: %d/20 bit errors", res.BitErrors)
	}
}

func TestLongRangeTrialBeatsPlainAt16m(t *testing.T) {
	spec := UplinkTrialSpec{
		Config:                 Config{Seed: 10, TagReaderDistance: 1.6},
		BitRate:                500, // 2 helper packets per chip
		HelperPacketsPerSecond: 1000,
		PayloadLen:             16,
	}
	coded, err := RunLongRangeTrial(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	if coded.BitErrors > 1 {
		t.Errorf("L=100 at 1.6 m: %d/16 errors", coded.BitErrors)
	}
}

func TestSingleChannelTrial(t *testing.T) {
	spec := UplinkTrialSpec{
		Config:                 Config{Seed: 11, TagReaderDistance: units.Centimeters(30)},
		BitRate:                100,
		HelperPacketsPerSecond: 1000,
		PayloadLen:             45,
	}
	if _, err := RunSingleChannelTrial(spec, 0, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSingleChannelTrial(spec, 9, 99); err == nil {
		t.Error("out-of-range channel should error")
	}
}

func TestRandomPayloadDeterministic(t *testing.T) {
	a := RandomPayload(64, 42)
	b := RandomPayload(64, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomPayload not deterministic")
		}
	}
	c := RandomPayload(64, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different payloads")
	}
}

func TestCountBitErrors(t *testing.T) {
	if got := CountBitErrors([]bool{true, false}, []bool{true, true}); got != 1 {
		t.Errorf("CountBitErrors = %d, want 1", got)
	}
	if got := CountBitErrors([]bool{true}, []bool{true, true}); got != 1 {
		t.Errorf("short decode should count missing bits, got %d", got)
	}
}

func TestUplinkAckRoundTrip(t *testing.T) {
	// §4.1: the tag acknowledges with a minimal burst (the bare
	// preamble); the reader detects it by correlation. Run one through
	// the full system.
	sys, err := NewSystem(Config{Seed: 33, TagReaderDistance: units.Centimeters(20)})
	if err != nil {
		t.Fatal(err)
	}
	(&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start()
	mod, err := sys.TransmitUplink(uplink.AckBits(), 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(mod.End() + 0.5)
	dec, err := sys.UplinkDecoder(100)
	if err != nil {
		t.Fatal(err)
	}
	ok, corr, err := dec.DetectAck(sys.Series(), mod.Start())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("ACK not detected through the system (corr %v)", corr)
	}
	// A window with no ACK must stay silent.
	ok, _, err = dec.DetectAck(sys.Series(), mod.End()+0.2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("phantom ACK detected in an idle window")
	}
}

func TestMultiTagConcurrentTransmissionsGarble(t *testing.T) {
	// Two tags transmitting different payloads simultaneously should
	// garble each other — the physical basis for inventory collisions.
	sys, err := NewSystem(Config{Seed: 34, TagReaderDistance: units.Centimeters(15)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddTag(units.Centimeters(15)); err != nil {
		t.Fatal(err)
	}
	(&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start()
	p0 := RandomPayload(45, 1)
	p1 := RandomPayload(45, 2)
	m0, err := sys.TransmitUplinkFrom(0, tag.FrameBits(p0), 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TransmitUplinkFrom(1, tag.FrameBits(p1), 1.0, 100); err != nil {
		t.Fatal(err)
	}
	sys.Run(m0.End() + 0.5)
	dec, _ := sys.UplinkDecoder(100)
	res, err := dec.DecodeCSI(sys.Series(), m0.Start(), 45)
	if err != nil {
		t.Fatal(err)
	}
	errs0 := CountBitErrors(res.Payload, p0)
	errs1 := CountBitErrors(res.Payload, p1)
	// The decode cannot be clean against both payloads simultaneously
	// (they differ in ~half their bits).
	if errs0 == 0 && errs1 == 0 {
		t.Error("impossible: decoded both colliding payloads cleanly")
	}
	if errs0+errs1 < 10 {
		t.Errorf("collision too clean: %d + %d errors", errs0, errs1)
	}
}

func TestTransmitUplinkFromValidation(t *testing.T) {
	sys, _ := NewSystem(Config{Seed: 35})
	if _, err := sys.TransmitUplinkFrom(3, []bool{true}, 0, 100); err == nil {
		t.Error("unknown tag index should error")
	}
	if _, err := sys.AddTag(0); err == nil {
		t.Error("zero tag distance should error")
	}
}

func TestTxLogAndModulationDepth(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	if d := sys.ModulationDepth(); d <= 0.1 || d > 1 {
		t.Errorf("modulation depth at 5 cm = %v, want a visible fraction", d)
	}
	sys.EnableTxLog()
	(&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 100, Interval: 0.001}).Start()
	sys.Run(0.1)
	if n := len(sys.TxLog()); n < 80 || n > 120 {
		t.Errorf("tx log holds %d entries, want ~100", n)
	}
}

func TestRunUplinkVariantTrialMatchesPaperVariant(t *testing.T) {
	// The corrupt profile impairs every channel before conditioning, so
	// the two trials only agree if the variant decode applies it too.
	for _, profile := range []string{"", "corrupt"} {
		var sched *faults.Schedule
		if profile != "" {
			var err error
			if sched, err = faults.ParseSpec(profile); err != nil {
				t.Fatal(err)
			}
		}
		spec := UplinkTrialSpec{
			Config:                 Config{Seed: 37, Faults: sched},
			BitRate:                100,
			HelperPacketsPerSecond: 1000,
			PayloadLen:             45,
		}
		a, err := RunUplinkTrial(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunUplinkVariantTrial(spec, uplink.PaperVariant)
		if err != nil {
			t.Fatal(err)
		}
		if a.BitErrors != b.BitErrors || !reflect.DeepEqual(a.Result.Payload, b.Result.Payload) ||
			math.Float64bits(a.Result.PreambleCorrelation) != math.Float64bits(b.Result.PreambleCorrelation) {
			t.Errorf("faults %q: paper variant trial (errors %d, corr %v) differs from the DecodeCSI trial (errors %d, corr %v)",
				profile, b.BitErrors, b.Result.PreambleCorrelation, a.BitErrors, a.Result.PreambleCorrelation)
		}
	}
	if _, err := RunUplinkVariantTrial(UplinkTrialSpec{}, uplink.PaperVariant); err == nil {
		t.Error("zero spec should error")
	}
}

func TestBurstyTrialRuns(t *testing.T) {
	// Bits must outlast the burst gaps (~10 ms) or some see no
	// measurements at all; 50 bps gives 20 ms bits, which the timestamp
	// binning handles (§5).
	res, err := RunUplinkTrial(UplinkTrialSpec{
		Config:                 Config{Seed: 38},
		BitRate:                50,
		HelperPacketsPerSecond: 1000,
		PayloadLen:             45,
		Bursty:                 true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors > 2 {
		t.Errorf("bursty trial at 5 cm: %d/45 errors", res.BitErrors)
	}
}

func TestMultipleHelpersCombine(t *testing.T) {
	// §5: "the Wi-Fi reader can leverage transmissions from all Wi-Fi
	// devices in the network and combine the channel information across
	// all of them to achieve a high data rate". Two helpers at 400 pkt/s
	// each: alone, 100 bps has only 4 measurements/bit; together, 8.
	run := func(all bool) (*UplinkTrialResult, float64) {
		sys, err := NewSystem(Config{Seed: 39, MeasureAllStations: all})
		if err != nil {
			t.Fatal(err)
		}
		(&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 1.0 / 400}).Start()
		second := sys.AddStation("helper2", 16, 4)
		(&wifi.CBRSource{Station: second, Dst: wifi.MAC{9}, Payload: 200, Interval: 1.0 / 400}).Start()
		payload := RandomPayload(45, 39+7777)
		mod, err := sys.TransmitUplink(tag.FrameBits(payload), 1.0, 100)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(mod.End() + 0.5)
		dec, _ := sys.UplinkDecoder(100)
		res, err := dec.DecodeCSI(sys.Series(), mod.Start(), 45)
		if err != nil {
			t.Fatal(err)
		}
		return &UplinkTrialResult{Sent: payload, Result: res,
			BitErrors: CountBitErrors(res.Payload, payload)}, res.MeasurementsPerBit
	}
	_, mpbOne := run(false)
	combined, mpbAll := run(true)
	if mpbAll < mpbOne*1.7 {
		t.Errorf("combining helpers should roughly double measurements/bit: %v -> %v",
			mpbOne, mpbAll)
	}
	if combined.BitErrors > 1 {
		t.Errorf("combined-helper decode errors = %d", combined.BitErrors)
	}
}

func TestFindTransmissionThroughSystem(t *testing.T) {
	// The reader scans for a response whose timing it does not know —
	// §3.2's "waiting for an incoming transmission" — over the real
	// channel model.
	sys, err := NewSystem(Config{Seed: 44, TagReaderDistance: units.Centimeters(25)})
	if err != nil {
		t.Fatal(err)
	}
	(&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start()
	payload := RandomPayload(45, 44)
	const trueStart = 1.6180
	mod, err := sys.TransmitUplink(tag.FrameBits(payload), trueStart, 100)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(mod.End() + 0.5)
	dec, _ := sys.UplinkDecoder(100)
	start, found, err := dec.FindTransmission(sys.Series(), 1.0, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("response not detected by the scan")
	}
	if start < trueStart-0.005 || start > trueStart+0.005 {
		t.Fatalf("scanned start = %v, want ~%v", start, trueStart)
	}
	res, err := dec.DecodeCSI(sys.Series(), start, 45)
	if err != nil {
		t.Fatal(err)
	}
	if errs := CountBitErrors(res.Payload, payload); errs > 1 {
		t.Errorf("decode from scanned start: %d/45 errors", errs)
	}
	// A scan over a quiet region must stay silent.
	_, found, err = dec.FindTransmission(sys.Series(), mod.End()+0.1, mod.End()+0.4)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("phantom detection after the transmission ended")
	}
}
