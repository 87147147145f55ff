package radio

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

func testGeometry(tagReader units.Meters) Geometry {
	return Geometry{HelperToTag: 3, TagToReader: tagReader}
}

// newOneTag builds a channel with a single tag at geo.TagToReader.
func newOneTag(t *testing.T, cfg ChannelConfig, geo Geometry, seed int64) *MultiChannel {
	t.Helper()
	c, err := NewMultiChannel(cfg, geo, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTag(geo.TagToReader); err != nil {
		t.Fatal(err)
	}
	return c
}

// observeOne observes a one-tag channel with the tag in the given state.
func observeOne(t *testing.T, c *MultiChannel, at float64, reflecting bool) [][]complex128 {
	t.Helper()
	h, err := c.Observe(at, []bool{reflecting})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestOneTagChannelValidation(t *testing.T) {
	cfg := DefaultChannelConfig()
	if _, err := NewMultiChannel(cfg, Geometry{}, rng.New(1)); err == nil {
		t.Error("zero geometry should error")
	}
	bad := cfg
	bad.Subchannels = 0
	if _, err := NewMultiChannel(bad, testGeometry(0.05), rng.New(1)); err == nil {
		t.Error("zero subchannels should error")
	}
	bad = cfg
	bad.Antennas = 0
	if _, err := NewMultiChannel(bad, testGeometry(0.05), rng.New(1)); err == nil {
		t.Error("zero antennas should error")
	}
	c, err := NewMultiChannel(cfg, testGeometry(0), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTag(0); err == nil {
		t.Error("zero tag distance should error")
	}
}

func TestChannelShape(t *testing.T) {
	ch := newOneTag(t, DefaultChannelConfig(), testGeometry(0.05), 2)
	if ch.Subchannels() != 30 || ch.Antennas() != 3 || ch.Tags() != 1 {
		t.Fatalf("shape = (%d, %d, %d tags), want (30, 3, 1 tag)", ch.Subchannels(), ch.Antennas(), ch.Tags())
	}
	obs := observeOne(t, ch, 0, false)
	if len(obs) != 3 || len(obs[0]) != 30 {
		t.Fatalf("Observe shape = (%d, %d)", len(obs), len(obs[0]))
	}
}

func TestModulationDepthFallsWithDistance(t *testing.T) {
	cfg := DefaultChannelConfig()
	near := newOneTag(t, cfg, testGeometry(0.05), 3)
	far := newOneTag(t, cfg, testGeometry(0.65), 3)
	dn, df := near.ModulationDepth(0), far.ModulationDepth(0)
	if dn <= df {
		t.Fatalf("depth should fall with distance: near %v, far %v", dn, df)
	}
	// Amplitude scales as 1/d: 65/5 = 13x.
	if ratio := dn / df; math.Abs(ratio-13) > 0.5 {
		t.Errorf("depth ratio = %v, want ~13", ratio)
	}
}

func TestModulationDepthMagnitude(t *testing.T) {
	// At 5 cm the backscatter term should be a visible fraction of the
	// direct channel (Fig. 3 shows a clear binary modulation), roughly
	// 10–60%.
	ch := newOneTag(t, DefaultChannelConfig(), testGeometry(0.05), 4)
	d := ch.ModulationDepth(0)
	if d < 0.05 || d > 1 {
		t.Errorf("modulation depth at 5 cm = %v, want within [0.05, 1]", d)
	}
}

func TestObserveStatesDiffer(t *testing.T) {
	ch := newOneTag(t, DefaultChannelConfig(), testGeometry(0.05), 5)
	on := observeOne(t, ch, 0, true)
	off := observeOne(t, ch, 0, false)
	var diff, base float64
	for a := range on {
		for k := range on[a] {
			diff += cmplx.Abs(on[a][k] - off[a][k])
			base += cmplx.Abs(off[a][k])
		}
	}
	if diff == 0 {
		t.Fatal("reflecting and absorbing states are identical")
	}
	if diff/base < 0.01 {
		t.Errorf("state contrast too small: %v", diff/base)
	}
}

func TestObserveDeterministicAtSameTime(t *testing.T) {
	ch := newOneTag(t, DefaultChannelConfig(), testGeometry(0.1), 6)
	a := observeOne(t, ch, 1.5, true)
	b := observeOne(t, ch, 1.5, true)
	for ant := range a {
		for k := range a[ant] {
			if a[ant][k] != b[ant][k] {
				t.Fatalf("same-time observations differ at [%d][%d]", ant, k)
			}
		}
	}
}

func TestObserveDriftsOverTime(t *testing.T) {
	ch := newOneTag(t, DefaultChannelConfig(), testGeometry(0.1), 7)
	a := observeOne(t, ch, 0, false)
	observeOne(t, ch, 5, false) // advance
	b := observeOne(t, ch, 10, false)
	var diff float64
	for ant := range a {
		for k := range a[ant] {
			diff += cmplx.Abs(a[ant][k] - b[ant][k])
		}
	}
	if diff == 0 {
		t.Error("channel did not drift over 10 s")
	}
}

func TestHelperWallsReduceDirectAmplitude(t *testing.T) {
	cfg := DefaultChannelConfig()
	geoLOS := testGeometry(0.05)
	geoNLOS := geoLOS
	geoNLOS.HelperWalls = 2
	los := newOneTag(t, cfg, geoLOS, 8)
	nlos := newOneTag(t, cfg, geoNLOS, 8)
	if nlos.ampDir >= los.ampDir {
		t.Errorf("walls should attenuate direct path: %v >= %v", nlos.ampDir, los.ampDir)
	}
	// Walls hit the helper→tag hop too, so modulation depth (the ratio)
	// is preserved.
	if math.Abs(nlos.ModulationDepth(0)-los.ModulationDepth(0)) > 1e-12 {
		t.Errorf("modulation depth changed with walls: %v vs %v",
			nlos.ModulationDepth(0), los.ModulationDepth(0))
	}
}

func TestHelperReaderOverride(t *testing.T) {
	g := Geometry{HelperToTag: 3, TagToReader: 0.05}
	if g.helperReader() != 3 {
		t.Errorf("derived helper-reader distance = %v, want 3", g.helperReader())
	}
	g.HelperToReader = 7
	if g.helperReader() != 7 {
		t.Errorf("explicit helper-reader distance = %v, want 7", g.helperReader())
	}
}

func TestSubchannelOffsetsCentered(t *testing.T) {
	ch := newOneTag(t, DefaultChannelConfig(), testGeometry(0.05), 9)
	var sum units.Hertz
	for _, f := range ch.offsets {
		sum += f
	}
	if math.Abs(float64(sum)) > 1 {
		t.Errorf("subchannel offsets not centered: sum = %v", sum)
	}
	span := float64(ch.offsets[len(ch.offsets)-1] - ch.offsets[0])
	if math.Abs(span-29*625e3) > 1 {
		t.Errorf("offset span = %v Hz, want 18.125 MHz", span)
	}
}

func TestDifferentialGainScalesWithElements(t *testing.T) {
	lambda := (2.437 * units.GHz).Wavelength()
	a1 := TagAntenna{Elements: 1, ElementDeltaGamma: 1, ElementAperture: 1.3e-3}
	a6 := a1
	a6.Elements = 6
	if g1, g6 := a1.DifferentialGain(lambda), a6.DifferentialGain(lambda); math.Abs(g6/g1-6) > 1e-9 {
		t.Errorf("gain should scale linearly with elements: %v / %v", g6, g1)
	}
	if (TagAntenna{}).DifferentialGain(lambda) != 0 {
		t.Error("zero-element antenna should have zero gain")
	}
}

func TestHarvestedPowerAtOneFoot(t *testing.T) {
	// §6: the harvester can run the 9.65 µW transmit+receive circuits
	// continuously at one foot (0.3048 m) from the Wi-Fi reader
	// (+16 dBm). The model should deliver at least that.
	a := DefaultTagAntenna()
	got := a.HarvestedPower(16, 0.3048)
	if got < 9.65 {
		t.Errorf("harvested power at 1 ft = %v µW, want >= 9.65", got)
	}
	// And far less at 3 m.
	far := a.HarvestedPower(16, 3)
	if far >= got/50 {
		t.Errorf("harvested power should fall as 1/d²: %v µW at 3 m", far)
	}
	if a.HarvestedPower(16, 0) != 0 {
		t.Error("zero distance should harvest zero (guard)")
	}
}
