package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/radio"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// Supplementary experiments for claims the paper states in passing.

// ChannelSweep validates §7.1's "the results for the other 2.4 GHz Wi-Fi
// channels are similar": the uplink BER at a fixed geometry, repeated on
// Wi-Fi channels 1, 6, and 11.
func ChannelSweep(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:   "§7.1 claim: uplink BER across 2.4 GHz Wi-Fi channels (30 cm, 30 pkt/bit)",
		Note:    "paper: results on other 2.4 GHz channels are similar to channel 6",
		Columns: []string{"Wi-Fi channel", "carrier", "BER"},
	}
	channels := []int{1, 6, 11}
	errsPer, err := parallel.Map(opt.engine(), len(channels)*opt.Trials, func(i int) (int, error) {
		ch := channels[i/opt.Trials]
		trial := i % opt.Trials
		chCfg := radio.DefaultChannelConfig()
		chCfg.Carrier = wifi.ChannelFreq(ch)
		res, err := core.RunUplinkTrial(core.UplinkTrialSpec{
			Config: core.Config{
				Seed:              opt.Seed + int64(trial)*9001 + int64(ch),
				TagReaderDistance: units.Centimeters(30),
				Channel:           &chCfg,
				Faults:            opt.Faults,
			},
			BitRate:                helperRate / 30,
			HelperPacketsPerSecond: helperRate,
			PayloadLen:             opt.PayloadLen,
			Mode:                   uplink.StreamCSI,
		})
		if err != nil {
			return 0, err
		}
		return res.BitErrors, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, ch := range channels {
		errs, bits := 0, 0
		for trial := 0; trial < opt.Trials; trial++ {
			errs += errsPer[ci*opt.Trials+trial]
			bits += opt.PayloadLen
		}
		t.AddRow(fmt.Sprintf("%d", ch), wifi.ChannelFreq(ch).String(), fmtBER(errs, bits))
	}
	return t, nil
}

// AckDetection characterizes §4.1's one-bit ACK burst: detection and
// false-alarm rates of the bare-preamble ACK across distance.
func AckDetection(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "§4.1 claim: one-bit uplink ACK bursts (13-bit preamble only)",
		Note: "the tag acknowledges with a minimal burst; the reader detects " +
			"it by many-channel preamble correlation",
		Columns: []string{"distance", "detections", "false alarms"},
	}
	distances := []float64{5, 25, 45, 65}
	type outcome struct{ detected, falseAlarm bool }
	results, err := parallel.Map(opt.engine(), len(distances)*opt.Trials,
		func(i int) (outcome, error) {
			cm := distances[i/opt.Trials]
			trial := i % opt.Trials
			sys, err := core.NewSystem(core.Config{
				Seed:              opt.Seed + int64(trial)*11003 + int64(cm),
				TagReaderDistance: units.Centimeters(cm),
				Faults:            opt.Faults,
			})
			if err != nil {
				return outcome{}, err
			}
			if err := (&wifi.CBRSource{
				Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 1.0 / helperRate,
			}).Start(); err != nil {
				return outcome{}, err
			}
			mod, err := sys.TransmitUplink(uplink.AckBits(), 1.0, helperRate/10)
			if err != nil {
				return outcome{}, err
			}
			sys.Run(mod.End() + 1.0)
			dec, err := sys.UplinkDecoder(helperRate / 10)
			if err != nil {
				return outcome{}, err
			}
			var out outcome
			out.detected, _, err = dec.DetectAck(sys.Series(), mod.Start())
			if err != nil {
				return outcome{}, err
			}
			// Probe an idle window for a false alarm.
			out.falseAlarm, _, err = dec.DetectAck(sys.Series(), mod.End()+0.3)
			if err != nil {
				return outcome{}, err
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for di, cm := range distances {
		detected, falses := 0, 0
		for trial := 0; trial < opt.Trials; trial++ {
			o := results[di*opt.Trials+trial]
			if o.detected {
				detected++
			}
			if o.falseAlarm {
				falses++
			}
		}
		t.AddRow(fmt.Sprintf("%.0f cm", cm),
			fmt.Sprintf("%d/%d", detected, opt.Trials),
			fmt.Sprintf("%d/%d", falses, opt.Trials))
	}
	return t, nil
}

// DutyCycledSensor runs the §6 energy story end to end: a tag harvesting
// only from a TV tower at the given distance accumulates energy in its
// storage capacitor and transmits a 90-bit report whenever it can afford
// one. The table reports the sustainable reporting rate across tower
// distances.
func DutyCycledSensor(seed int64) (*Table, error) {
	t := &Table{
		Title: "§6 extension: duty-cycled reporting from TV harvesting alone",
		Note: "the always-on circuits draw 9.65 µW; past the break-even " +
			"distance the tag must duty cycle, and the report rate falls " +
			"with harvested power",
		Columns: []string{"TV tower distance", "harvest", "duty cycle", "reports/hour"},
	}
	h := tag.DefaultHarvester()
	for _, km := range []float64{5, 8, 10, 15, 20} {
		supply := h.TVHarvest(units.Meters(km * 1000))
		dc := tag.DutyCycle(supply, tag.CircuitLoadMicrowatt)
		// Simulate an hour of charge/spend with the reservoir: a report
		// is a 90-bit transmission at 100 bps plus the receiver staying
		// on to hear the query (1 s at the full circuit load), costing
		// E = 1.9 s × 9.65 µW.
		res := &tag.Reservoir{CapacityJoules: 100e-6}
		const reportSeconds = 1.9
		reportEnergy := reportSeconds * tag.CircuitLoadMicrowatt // µJ
		reports := 0
		const step = 1.0 // seconds
		for tsec := 0.0; tsec < 3600; tsec += step {
			res.Charge(supply, step)
			if res.Stored() >= reportEnergy*1e-6 {
				if res.Draw(tag.CircuitLoadMicrowatt, reportSeconds) {
					reports++
				}
			}
		}
		t.AddRow(fmt.Sprintf("%.0f km", km),
			fmt.Sprintf("%.2f µW", float64(supply)),
			fmt.Sprintf("%.0f%%", 100*dc),
			fmt.Sprintf("%d", reports))
	}
	return t, nil
}
