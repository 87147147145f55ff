package radio

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// refResponse is Multipath.Response evaluated the direct way, one
// cmplx.Rect per tap: the oracle the phasor table must match bit for bit.
func refResponse(m *Multipath, offset units.Hertz) complex128 {
	h := m.los
	for i, tap := range m.taps {
		phase := -2 * math.Pi * float64(offset) * m.delays[i]
		h += tap * cmplx.Rect(1, phase)
	}
	return h
}

// refObserve is the composite channel computed the direct way: every
// response re-evaluated per antenna and sub-channel through refResponse.
func refObserve(c *MultiChannel, t float64, reflecting []bool) [][]complex128 {
	for _, tp := range c.tags {
		tp.helpTag.EvolveTo(t)
	}
	out := make([][]complex128, c.antennas)
	for a := 0; a < c.antennas; a++ {
		c.direct[a].EvolveTo(t)
		row := make([]complex128, len(c.offsets))
		for _, tp := range c.tags {
			tp.tagRead[a].EvolveTo(t)
		}
		for k, f := range c.offsets {
			h := refResponse(c.direct[a], f) * complex(c.ampDir, 0)
			for i, tp := range c.tags {
				if !reflecting[i] {
					continue
				}
				h += refResponse(tp.helpTag, f) * refResponse(tp.tagRead[a], f) * complex(tp.ampBack, 0)
			}
			row[k] = h * complex(c.scale, 0)
		}
		out[a] = row
	}
	return out
}

type namedConfig struct {
	name string
	cfg  ChannelConfig
}

// oracleConfigs are the channel configurations the oracle covers: the
// default and each degenerate corner of the multipath and sub-channel
// parameters.
func oracleConfigs() []namedConfig {
	base := DefaultChannelConfig()
	with := func(name string, edit func(*ChannelConfig)) namedConfig {
		cfg := base
		edit(&cfg)
		return namedConfig{name, cfg}
	}
	return []namedConfig{
		{"default", base},
		with("taps=1", func(c *ChannelConfig) { c.Multipath.Taps = 1 }),
		with("delayspread=0", func(c *ChannelConfig) { c.Multipath.DelaySpread = 0 }),
		with("ricek=0", func(c *ChannelConfig) { c.Multipath.RiceK = 0 }),
		with("coherence=0", func(c *ChannelConfig) { c.Multipath.CoherenceTime = 0 }),
		with("coherence=10ms", func(c *ChannelConfig) { c.Multipath.CoherenceTime = 0.01 }),
		with("subchannels=1", func(c *ChannelConfig) { c.Subchannels = 1 }),
	}
}

// oracleTimes advance, repeat and go backwards.
var oracleTimes = []float64{0, 0.001, 0.001, 0.5, 0.25, 0.5, 3, 2.9999, 3.0002, 40, 40, 1}

func buildOracleChannel(t *testing.T, cfg ChannelConfig, tags int, seed int64) *MultiChannel {
	t.Helper()
	c, err := NewMultiChannel(cfg, Geometry{HelperToTag: 3, HelperWalls: 1}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tags; i++ {
		if _, err := c.AddTag(units.Meters(0.05 * float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func requireSameBits(t *testing.T, what string, got, want [][]complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for a := range want {
		if len(got[a]) != len(want[a]) {
			t.Fatalf("%s: row %d has %d entries, want %d", what, a, len(got[a]), len(want[a]))
		}
		for k, w := range want[a] {
			g := got[a][k]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("%s: [%d][%d] = %v, want %v", what, a, k, g, w)
			}
		}
	}
}

// TestObserveMatchesReferenceBitExact drives three channels drawn from one
// seed — one observed through refObserve, one through Observe, one through
// ObserveInto into a reused buffer — with every reflecting combination at
// every time, and requires identical float64 bits everywhere.
func TestObserveMatchesReferenceBitExact(t *testing.T) {
	for _, nc := range oracleConfigs() {
		cfg := nc.cfg
		for tags := 1; tags <= 3; tags++ {
			t.Run(fmt.Sprintf("%s/tags=%d", nc.name, tags), func(t *testing.T) {
				seed := int64(100 + tags)
				ref := buildOracleChannel(t, cfg, tags, seed)
				obs := buildOracleChannel(t, cfg, tags, seed)
				into := buildOracleChannel(t, cfg, tags, seed)
				buf := make([][]complex128, cfg.Antennas)
				for a := range buf {
					buf[a] = make([]complex128, cfg.Subchannels)
				}
				states := make([]bool, tags)
				for step, at := range oracleTimes {
					for mask := 0; mask < 1<<tags; mask++ {
						for i := range states {
							states[i] = mask&(1<<i) != 0
						}
						what := fmt.Sprintf("t=%v states=%v (step %d)", at, states, step)
						want := refObserve(ref, at, states)
						got, err := obs.Observe(at, states)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, "Observe "+what, got, want)
						for _, row := range buf {
							for k := range row {
								row[k] = complex(math.NaN(), math.NaN())
							}
						}
						if err := into.ObserveInto(buf, at, states); err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, "ObserveInto "+what, buf, want)
					}
				}
			})
		}
	}
}

// TestResponseMatchesReference pins the public per-offset Response to the
// direct evaluation, off the sub-channel grid too.
func TestResponseMatchesReference(t *testing.T) {
	for _, nc := range oracleConfigs() {
		m := NewMultipath(nc.cfg.Multipath, rng.New(5))
		for _, f := range []units.Hertz{0, 312.5 * units.KHz, -9.0625 * units.MHz, 10 * units.MHz, 1234567} {
			got, want := m.Response(f), refResponse(m, f)
			if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
				math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
				t.Errorf("%s: Response(%v) = %v, want %v", nc.name, f, got, want)
			}
		}
	}
}

func TestObserveIntoRejectsMisshapedInput(t *testing.T) {
	c := buildOracleChannel(t, DefaultChannelConfig(), 2, 1)
	good := func() [][]complex128 {
		h := make([][]complex128, 3)
		for a := range h {
			h[a] = make([]complex128, 30)
		}
		return h
	}
	if err := c.ObserveInto(good(), 0, []bool{true}); err == nil {
		t.Error("state count mismatch should error")
	}
	if err := c.ObserveInto(good()[:2], 0, []bool{true, false}); err == nil {
		t.Error("missing antenna row should error")
	}
	short := good()
	short[1] = short[1][:29]
	if err := c.ObserveInto(short, 0, []bool{true, false}); err == nil {
		t.Error("short row should error")
	}
	if err := c.ObserveInto(good(), 0, []bool{true, false}); err != nil {
		t.Errorf("well-shaped input: %v", err)
	}
}

// BenchmarkMultiChannelObserve times one measurement's channel synthesis
// on the default channel with one tag, at a 1 kHz packet rate so every
// call evolves the taps: Observe allocates the rows, ObserveInto reuses
// one buffer.
func BenchmarkMultiChannelObserve(b *testing.B) {
	setup := func(b *testing.B) *MultiChannel {
		c, err := NewMultiChannel(DefaultChannelConfig(), Geometry{HelperToTag: 3}, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.AddTag(0.1); err != nil {
			b.Fatal(err)
		}
		return c
	}
	states := [][]bool{{true}, {false}}
	b.Run("Observe", func(b *testing.B) {
		c := setup(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Observe(float64(i)*1e-3, states[i&1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ObserveInto", func(b *testing.B) {
		c := setup(b)
		h := make([][]complex128, c.Antennas())
		for a := range h {
			h[a] = make([]complex128, c.Subchannels())
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.ObserveInto(h, float64(i)*1e-3, states[i&1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
