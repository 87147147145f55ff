// Package core is the public facade of the Wi-Fi Backscatter library. It
// wires the substrates — the discrete-event engine, the CSMA/CA medium,
// the RF channel model, the measurement card, the tag, and the uplink /
// downlink codecs — into a System on which transactions and the paper's
// experiments run.
//
// A System hosts three actors (§2):
//
//   - the helper (any Wi-Fi transmitter, typically an AP), whose packets
//     illuminate the tag;
//   - the reader (a commodity Wi-Fi device), which measures CSI/RSSI on
//     received packets to decode the tag and transmits packet-presence
//     patterns to reach it;
//   - the battery-free tag, which modulates its antenna impedance on the
//     uplink and detects packet energy on the downlink.
package core

import (
	"fmt"

	"repro/internal/csi"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// Config describes a Wi-Fi Backscatter deployment. Zero-valued fields take
// the defaults from the paper's testbed.
type Config struct {
	// Seed drives all randomness; equal seeds replay identically.
	Seed int64
	// TagReaderDistance separates tag and reader (the swept variable in
	// most uplink experiments).
	TagReaderDistance units.Meters
	// HelperTagDistance separates helper and tag (3 m in the paper's
	// experiments).
	HelperTagDistance units.Meters
	// HelperReaderDistance separates helper and reader directly; zero
	// derives it from HelperTagDistance.
	HelperReaderDistance units.Meters
	// HelperWalls counts walls between the helper and the tag/reader.
	HelperWalls int
	// Channel overrides the RF channel model.
	Channel *radio.ChannelConfig
	// Card overrides the measurement model.
	Card *csi.Model
	// ReaderPower is the reader's transmit power (§8.1 uses +16 dBm).
	ReaderPower units.DBm
	// HelperPower is the helper's transmit power.
	HelperPower units.DBm
	// MeasureAllStations lets the reader harvest channel measurements
	// from every station's packets, not only the helper's (§5:
	// "leveraging traffic from all Wi-Fi devices").
	MeasureAllStations bool
	// Faults, when non-nil and non-empty, injects the scheduled
	// impairments into the medium, the measurement path, both codecs, and
	// the tag decoder. The injector's randomness derives from Seed (via
	// rng.TrialSeed with a fixed salt), never from the streams the clean
	// pipeline consumes, so a schedule whose windows all have intensity
	// zero replays the clean run bit-for-bit.
	Faults *faults.Schedule
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.TagReaderDistance == 0 {
		c.TagReaderDistance = units.Centimeters(5)
	}
	if c.HelperTagDistance == 0 {
		c.HelperTagDistance = units.Meters(3)
	}
	if c.ReaderPower == 0 {
		c.ReaderPower = units.DBm(16)
	}
	if c.HelperPower == 0 {
		c.HelperPower = units.DBm(16)
	}
	return c
}

// placement records a station's RF relationship to the tag.
type placement struct {
	power    units.DBm
	distance units.Meters
}

// System is an assembled Wi-Fi Backscatter deployment.
type System struct {
	cfg Config

	// Eng is the discrete-event engine; advance it with Run.
	Eng *sim.Engine
	// Medium is the shared 802.11 channel.
	Medium *wifi.Medium
	// Helper is the illuminating station (AP).
	Helper *wifi.Station
	// Reader is the decoding/querying station.
	Reader *wifi.Station
	// Channel is the composite backscatter RF channel; tag 0 is created
	// at construction and more tags can join via AddTag.
	Channel *radio.MultiChannel
	// Card is the reader's measurement front end.
	Card *csi.Card

	obs        *obs.Registry
	rnd        *rng.Stream
	envStream  *rng.Stream
	faults     *faults.Injector
	mods       []*tag.Modulator // per-tag active transmission (nil = idle)
	states     []bool           // scratch buffer for ObserveInto
	h          [][]complex128   // channel snapshot ObserveInto refills per measurement
	series     csi.Series
	placements map[*wifi.Station]placement
	txLog      []*wifi.Transmission
	logEnabled bool
	onMeasure  []func(csi.Measurement)
}

// NewSystem assembles a deployment from the config.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	rnd := rng.New(cfg.Seed)
	chCfg := radio.DefaultChannelConfig()
	if cfg.Channel != nil {
		chCfg = *cfg.Channel
	}
	cardModel := csi.DefaultModel()
	if cfg.Card != nil {
		cardModel = *cfg.Card
	}
	geo := radio.Geometry{
		HelperToTag:    cfg.HelperTagDistance,
		TagToReader:    cfg.TagReaderDistance,
		HelperToReader: cfg.HelperReaderDistance,
		HelperWalls:    cfg.HelperWalls,
	}
	channel, err := radio.NewMultiChannel(chCfg, geo, rnd.Split("channel"))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, err := channel.AddTag(cfg.TagReaderDistance); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	eng := sim.NewEngine()
	medium := wifi.NewMedium(eng, rnd.Split("medium"))
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	medium.Instrument(reg)
	s := &System{
		cfg:        cfg,
		Eng:        eng,
		Medium:     medium,
		obs:        reg,
		Channel:    channel,
		Card:       csi.NewCard(cardModel, rnd.Split("card")),
		rnd:        rnd,
		envStream:  rnd.Split("envelope"),
		placements: make(map[*wifi.Station]placement),
		mods:       make([]*tag.Modulator, 1),
		states:     make([]bool, 1),
		h:          make([][]complex128, channel.Antennas()),
	}
	for a := range s.h {
		s.h[a] = make([]complex128, channel.Subchannels())
	}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		// The injector gets its own stream derived from the seed by a
		// bijective mix, NOT by splitting rnd: a Split here would advance
		// rnd and perturb every stream created after it, breaking the
		// clean-run equivalence of zero-intensity schedules.
		inj, err := faults.NewInjector(cfg.Faults, rng.New(rng.TrialSeed(cfg.Seed, faultStreamSalt)))
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		inj.Instrument(reg)
		s.faults = inj
		medium.Impair = inj
	}
	s.Helper = medium.AddStation("helper", wifi.MAC{0x02, 0, 0, 0, 0, 1}, wifi.Rate54)
	s.Reader = medium.AddStation("reader", wifi.MAC{0x02, 0, 0, 0, 0, 2}, wifi.Rate54)
	s.placements[s.Helper] = placement{power: cfg.HelperPower, distance: cfg.HelperTagDistance}
	s.placements[s.Reader] = placement{power: cfg.ReaderPower, distance: cfg.TagReaderDistance}

	// The reader in monitor mode: every decodable packet yields a
	// channel measurement stamped with its reception time (§3.2).
	medium.AddListener(func(tx *wifi.Transmission) {
		if s.logEnabled {
			s.txLog = append(s.txLog, tx)
		}
		if tx.Collided {
			return
		}
		if tx.Station == s.Reader {
			return // the reader cannot measure its own transmissions
		}
		if !s.cfg.MeasureAllStations && tx.Station != s.Helper {
			return
		}
		// CSI is estimated from the PLCP training symbols at the start
		// of reception, so both the channel snapshot and the
		// measurement timestamp anchor there.
		at := tx.Start + 10e-6
		for i, mod := range s.mods {
			s.states[i] = mod != nil && mod.StateAt(at)
		}
		if herr := s.Channel.ObserveInto(s.h, at, s.states); herr != nil {
			// Programmer-error assert: s.states and the channel's tag
			// set are resized together in AddTag, and s.h is shaped to
			// the channel here, so a mismatch is a bug in this file, not
			// reachable from user input.
			panic(herr)
		}
		// Fades attenuate the observed channel in place before the card
		// measures it; measurement corruption runs after, so the card's
		// own noise stream stays aligned with the clean run. Measure
		// copies out of s.h, so the buffer never outlives this packet.
		s.faults.AttenuateChannel(at, s.h)
		m := s.Card.Measure(at, s.h)
		if s.faults.CorruptMeasurement(at, &m) {
			return // the flaky capture path dropped this packet's report
		}
		s.series.Append(m)
		for _, fn := range s.onMeasure {
			fn(m)
		}
	})
	return s, nil
}

// OnMeasurement registers a hook invoked for every measurement the reader
// captures, in capture order, after it lands in the system's series. This
// is the online path: a reader.LiveSession subscribed here decodes during
// the simulation instead of batch-processing Series() afterwards. Hooks
// run inside the measurement listener, so they must not mutate the
// system; the measurement's slices are owned by the series and must be
// treated as read-only.
func (s *System) OnMeasurement(fn func(csi.Measurement)) {
	s.onMeasure = append(s.onMeasure, fn)
}

// faultStreamSalt derives the fault injector's rng root from the system
// seed (an arbitrary odd constant; see NewSystem).
const faultStreamSalt = 0x66_6C_74_73 // "flts"

// FaultInjector returns the system's fault injector, or nil when the
// config carried no fault schedule. The injector's Tally attributes
// injected events to run phases.
func (s *System) FaultInjector() *faults.Injector { return s.faults }

// Config returns the (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// Metrics returns the system's observability registry. Every substrate the
// system assembles (engine, medium, decoders, encoders) registers its
// counters here; snapshot it after a run for a deterministic account of the
// pipeline. The registry is confined to the system's goroutine.
func (s *System) Metrics() *obs.Registry { return s.obs }

// AddStation places an extra Wi-Fi station at the given distance from the
// tag, e.g. ambient clients or an interfering transmitter.
func (s *System) AddStation(name string, power units.DBm, distToTag units.Meters) *wifi.Station {
	addr := wifi.MAC{0x02, 0, 0, 0, 1, byte(len(s.placements))}
	st := s.Medium.AddStation(name, addr, wifi.Rate54)
	s.placements[st] = placement{power: power, distance: distToTag}
	return st
}

// EnableTxLog starts recording every transmission, which the tag-side
// downlink simulation and frame capture consume.
func (s *System) EnableTxLog() { s.logEnabled = true }

// TxLog returns the recorded transmissions (EnableTxLog must have been
// called before running).
func (s *System) TxLog() []*wifi.Transmission { return s.txLog }

// Series returns the measurement series collected so far.
func (s *System) Series() *csi.Series { return &s.series }

// ResetSeries discards collected measurements (between trials).
func (s *System) ResetSeries() { s.series = csi.Series{} }

// AddTag places another tag at the given distance from the reader and
// returns its index (tag 0 always exists). Tags added here share the
// helper geometry.
func (s *System) AddTag(tagReaderDistance units.Meters) (int, error) {
	idx, err := s.Channel.AddTag(tagReaderDistance)
	if err != nil {
		return 0, err
	}
	s.mods = append(s.mods, nil)
	s.states = append(s.states, false)
	return idx, nil
}

// ModulationDepth returns tag 0's backscatter-to-direct amplitude ratio.
func (s *System) ModulationDepth() float64 { return s.Channel.ModulationDepth(0) }

// TransmitUplink arms tag 0 to transmit the given on-air bits starting
// at time start with the given bit rate (bits/second). It replaces any
// previous transmission.
func (s *System) TransmitUplink(bits []bool, start, bitRate float64) (*tag.Modulator, error) {
	return s.TransmitUplinkFrom(0, bits, start, bitRate)
}

// TransmitUplinkFrom arms the tag with the given index.
func (s *System) TransmitUplinkFrom(tagIdx int, bits []bool, start, bitRate float64) (*tag.Modulator, error) {
	if tagIdx < 0 || tagIdx >= len(s.mods) {
		return nil, fmt.Errorf("core: tag %d does not exist (%d tags)", tagIdx, len(s.mods))
	}
	if bitRate <= 0 {
		return nil, fmt.Errorf("core: bit rate must be positive, got %v", bitRate)
	}
	mod, err := tag.NewModulator(bits, start, 1/bitRate)
	if err != nil {
		return nil, err
	}
	s.mods[tagIdx] = mod
	return mod, nil
}

// UplinkDecoder builds the paper's decoder for the given tag bit rate.
func (s *System) UplinkDecoder(bitRate float64) (*uplink.Decoder, error) {
	if bitRate <= 0 {
		return nil, fmt.Errorf("core: bit rate must be positive, got %v", bitRate)
	}
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(1 / bitRate))
	if err != nil {
		return nil, err
	}
	dec.Instrument(s.obs)
	if s.faults != nil {
		dec.Impair = s.faults
	}
	return dec, nil
}

// Run advances the simulation to absolute time t.
func (s *System) Run(until float64) { s.Eng.Run(until) }
