package eval

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/downlink"
	"repro/internal/parallel"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// Location describes a helper/transmitter placement from the Fig. 13
// testbed: locations 2–4 are line-of-sight at growing distances; location
// 5 is in the next room (one wall) with heavy ambient utilization.
type Location struct {
	Name string
	// Distance from the tag/reader area.
	Distance units.Meters
	// Walls between the location and the tag/reader.
	Walls int
	// BaseSNR of a transmitter at this location to the Fig. 19 receiver.
	BaseSNR units.DB
	// Contended marks external interference (the class next door during
	// the location-5 runs).
	Contended bool
}

// TestbedLocations reproduces Fig. 13's placements.
var TestbedLocations = []Location{
	{Name: "2", Distance: units.Meters(3), Walls: 0, BaseSNR: units.DB(26)},
	{Name: "3", Distance: units.Meters(5.5), Walls: 0, BaseSNR: units.DB(21)},
	{Name: "4", Distance: units.Meters(7), Walls: 0, BaseSNR: units.DB(16)},
	{Name: "5", Distance: units.Meters(9), Walls: 1, BaseSNR: units.DB(11), Contended: true},
}

// HelperLocations reproduces Fig. 14: the probability of receiving a
// correct packet on the uplink for each helper location, with the tag
// 5 cm from the reader transmitting 64-bit CRC-protected messages at
// 100 bps.
func HelperLocations(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Figure 14: uplink packet delivery vs helper location",
		Note: "paper: delivery stays high at every location, including the " +
			"non-line-of-sight one — the uplink depends on the tag-reader " +
			"distance, not the helper's position",
		Columns: []string{"location", "distance", "walls", "delivery probability"},
	}
	deliveredPer, err := parallel.Map(opt.engine(), len(TestbedLocations)*opt.Trials,
		func(i int) (bool, error) {
			loc := TestbedLocations[i/opt.Trials]
			trial := i % opt.Trials
			sys, err := core.NewSystem(core.Config{
				Seed:              opt.Seed + int64(trial)*5003 + int64(loc.Distance*10),
				HelperTagDistance: loc.Distance,
				HelperWalls:       loc.Walls,
				Faults:            opt.Faults,
			})
			if err != nil {
				return false, err
			}
			if err := (&wifi.CBRSource{
				Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 1.0 / helperRate,
			}).Start(); err != nil {
				return false, err
			}
			msg := downlink.NewMessage(uint64(opt.Seed) + uint64(trial)*77)
			mod, err := sys.TransmitUplink(tag.FrameBits(tag.Scramble(msg.PayloadBits())), 1.0, 100)
			if err != nil {
				return false, err
			}
			sys.Run(mod.End() + 0.5)
			dec, err := sys.UplinkDecoder(100)
			if err != nil {
				return false, err
			}
			res, err := dec.DecodeCSI(sys.Series(), mod.Start(), downlink.PayloadBits)
			if err != nil {
				return false, err
			}
			got, perr := downlink.ParsePayload(tag.Scramble(res.Payload))
			return perr == nil && got.Data == msg.Data, nil
		})
	if err != nil {
		return nil, err
	}
	for li, loc := range TestbedLocations {
		delivered := 0
		for trial := 0; trial < opt.Trials; trial++ {
			if deliveredPer[li*opt.Trials+trial] {
				delivered++
			}
		}
		t.AddRow(loc.Name, fmt.Sprintf("%.1f m", float64(loc.Distance)),
			fmt.Sprintf("%d", loc.Walls),
			fmt.Sprintf("%.2f", float64(delivered)/float64(opt.Trials)))
	}
	return t, nil
}

// AmbientRates are the bit rates tested for ambient-traffic operation
// (Fig. 15's y-axis spans ~50–250 bps).
var AmbientRates = []float64{25, 50, 100, 200, 500}

// AmbientTraffic reproduces Fig. 15: achievable uplink rate using only
// the traffic already on the network, across the office day.
func AmbientTraffic(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Figure 15: achievable rate from ambient traffic vs time of day",
		Note: "paper: rate tracks network load — roughly 100–200 bps through " +
			"the afternoon peak with no injected traffic",
		Columns: []string{"time", "load pkt/s", "achievable bit rate"},
	}
	eng := opt.engine()
	for _, hour := range []float64{12, 13, 14, 15, 16, 17, 18, 19, 20} {
		load := wifi.OfficeLoad(hour)
		rate, err := achievableRate(eng, AmbientRates, func(rate float64, trial int) (int, int, error) {
			sys, err := core.NewSystem(core.Config{
				Seed:   opt.Seed + int64(trial)*6007 + int64(hour)*31 + int64(rate),
				Faults: opt.Faults,
			})
			if err != nil {
				return 0, 0, err
			}
			if err := (&wifi.PoissonSource{
				Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 400,
				Rate: load, Rnd: rng.New(opt.Seed + int64(trial) + int64(hour*7)),
			}).Start(); err != nil {
				return 0, 0, err
			}
			payload := core.RandomPayload(opt.PayloadLen, opt.Seed+int64(trial))
			mod, err := sys.TransmitUplink(tag.FrameBits(payload), 1.0, rate)
			if err != nil {
				return 0, 0, err
			}
			sys.Run(mod.End() + 0.5)
			dec, err := sys.UplinkDecoder(rate)
			if err != nil {
				return 0, 0, err
			}
			res, err := dec.DecodeCSI(sys.Series(), mod.Start(), opt.PayloadLen)
			if err != nil {
				return 0, 0, err
			}
			return core.CountBitErrors(res.Payload, payload), opt.PayloadLen, nil
		}, opt.Trials)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%02.0f:00", hour), fmt.Sprintf("%.0f", load),
			fmt.Sprintf("%.0f bps", rate))
	}
	return t, nil
}

// BeaconRatesTested are the uplink rates tried for beacon-only operation.
var BeaconRatesTested = []float64{2, 5, 10, 20, 30, 40, 50}

// BeaconOnly reproduces Fig. 16: achievable uplink rate when the reader
// uses only the AP's periodic beacons, decoded from RSSI (the Intel cards
// do not expose CSI for beacons).
func BeaconOnly(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	payload := opt.PayloadLen
	if payload > 30 {
		payload = 30 // low rates: keep each trial's duration bounded
	}
	t := &Table{
		Title: "Figure 16: achievable rate using only AP beacons (RSSI decoding)",
		Note: "paper: rate grows with beacon frequency, to ~45 bps at " +
			"70 beacons/s — the uplink needs no data traffic at all",
		Columns: []string{"beacons/s", "achievable bit rate"},
	}
	eng := opt.engine()
	for _, br := range []float64{10, 20, 30, 40, 50, 70} {
		rate, err := achievableRate(eng, BeaconRatesTested, func(rate float64, trial int) (int, int, error) {
			if rate > br/1.4 {
				// Fewer than ~1.4 beacons per bit cannot carry a bit.
				return payload, payload, nil
			}
			res, err := core.RunUplinkTrial(core.UplinkTrialSpec{
				Config: core.Config{
					Seed:   opt.Seed + int64(trial)*7001 + int64(br)*3 + int64(rate),
					Faults: opt.Faults,
				},
				BitRate:                rate,
				HelperPacketsPerSecond: br,
				PayloadLen:             payload,
				Mode:                   uplink.StreamRSSI,
				UseBeacons:             true,
			})
			if err != nil {
				return 0, 0, err
			}
			return res.BitErrors, payload, nil
		}, opt.Trials)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", br), fmt.Sprintf("%.0f bps", rate))
	}
	return t, nil
}

// WiFiImpact reproduces Fig. 19: the effect of the tag's continuous
// modulation on a Wi-Fi transmitter's UDP throughput, for each transmitter
// location and for the tag absent, at 100 bps, and at 1 kbps, with the
// tag at the given distance from the receiver. Each run simulates a
// two-minute UDP transfer with ARF rate adaptation, logging throughput
// every 500 ms as the paper does. The location × rate grid fans out over
// workers goroutines (0 = GOMAXPROCS, 1 = serial) with identical results.
func WiFiImpact(tagDistance units.Meters, seconds float64, seed int64, workers int) (*Table, error) {
	if seconds <= 0 {
		seconds = 120
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 19 (tag at %v from receiver): UDP throughput", tagDistance),
		Note: "paper: throughput differences with the tag modulating stay " +
			"within the run-to-run variance — rate adaptation absorbs the " +
			"small channel perturbation",
		Columns: []string{"location", "no device", "100 bps", "1 kbps"},
	}
	tagRates := []float64{0, 100, 1000}
	cells, err := parallel.Map(parallel.New(workers), len(TestbedLocations)*len(tagRates),
		func(i int) (string, error) {
			loc := TestbedLocations[i/len(tagRates)]
			tagRate := tagRates[i%len(tagRates)]
			mean, std := wifiImpactRun(loc, tagDistance, tagRate, seconds, seed)
			return fmt.Sprintf("%.2f±%.2f MB/s", mean, std), nil
		})
	if err != nil {
		return nil, err
	}
	for li, loc := range TestbedLocations {
		row := []string{loc.Name}
		row = append(row, cells[li*len(tagRates):(li+1)*len(tagRates)]...)
		t.AddRow(row...)
	}
	return t, nil
}

// wifiImpactRun simulates one UDP transfer and returns the mean and
// standard deviation of the per-500 ms throughput in MB/s.
func wifiImpactRun(loc Location, tagDistance units.Meters, tagRate float64, seconds float64, seed int64) (mean, std float64) {
	rnd := rng.New(seed + int64(loc.Distance*100) + int64(tagRate))
	eng := sim.NewEngine()
	medium := wifi.NewMedium(eng, rnd.Split("medium"))
	tx := medium.AddStation("laptop", wifi.MAC{1}, wifi.Rate54)
	tx.Adapter = wifi.NewARF()

	// The tag's reflection perturbs the transmitter→receiver channel.
	// The perturbation amplitude follows the backscatter link budget
	// with the tag at tagDistance from the receiver; its phase is fixed
	// per run.
	lambda := wifi.ChannelFreq(6).Wavelength()
	ant := radioDifferentialGain(lambda)
	depth := float64(loc.Distance) / float64(loc.Distance) * // tx→tag ≈ tx→rx
		(float64(lambda) / (4 * math.Pi * float64(tagDistance))) * ant
	phase := rnd.Float64() * 2 * math.Pi
	perturb := units.DB(20 * math.Log10(math.Hypot(1+depth*math.Cos(phase), depth*math.Sin(phase))))
	tx.SNR = func(now float64) units.DB {
		snr := loc.BaseSNR
		if tagRate > 0 && int(now*tagRate)%2 == 0 {
			snr += perturb
		}
		return snr
	}
	(&wifi.SaturatedSource{Station: tx, Dst: wifi.MAC{2}, Payload: 1400}).Start()
	if loc.Contended {
		rival := medium.AddStation("class", wifi.MAC{3}, wifi.Rate24)
		(&wifi.BurstySource{
			Station: rival, Dst: wifi.MAC{9}, Payload: 1200,
			MeanBurst: 30, MeanGap: 0.05, InBurstInterval: 0.0006,
			Rnd: rnd.Split("class"),
		}).Start()
	}
	// Log delivered bytes every 500 ms.
	var samples []float64
	lastBytes := 0
	var tick func()
	tick = func() {
		delivered := tx.DeliveredBytes
		samples = append(samples, float64(delivered-lastBytes)/0.5/1e6)
		lastBytes = delivered
		eng.Schedule(0.5, tick)
	}
	eng.Schedule(0.5, tick)
	eng.Run(seconds)
	if len(samples) == 0 {
		return 0, 0
	}
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	for _, s := range samples {
		std += (s - mean) * (s - mean)
	}
	std = math.Sqrt(std / float64(len(samples)))
	return mean, std
}

// radioDifferentialGain is the tag antenna's differential scattering gain.
func radioDifferentialGain(lambda units.Meters) float64 {
	return radio.DefaultTagAntenna().DifferentialGain(lambda)
}
