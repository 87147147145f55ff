package radio

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

func newMulti(t *testing.T, dists ...units.Meters) *MultiChannel {
	t.Helper()
	c, err := NewMultiChannel(DefaultChannelConfig(), Geometry{HelperToTag: 3, TagToReader: dists[0]}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dists {
		if _, err := c.AddTag(d); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestMultiChannelValidation(t *testing.T) {
	cfg := DefaultChannelConfig()
	if _, err := NewMultiChannel(cfg, Geometry{}, rng.New(1)); err == nil {
		t.Error("zero helper distance should error")
	}
	bad := cfg
	bad.Antennas = 0
	if _, err := NewMultiChannel(bad, Geometry{HelperToTag: 3}, rng.New(1)); err == nil {
		t.Error("zero antennas should error")
	}
	c, _ := NewMultiChannel(cfg, Geometry{HelperToTag: 3}, rng.New(1))
	if _, err := c.AddTag(0); err == nil {
		t.Error("zero tag distance should error")
	}
}

func TestMultiChannelObserveStateMismatch(t *testing.T) {
	c := newMulti(t, 0.05)
	if _, err := c.Observe(0, []bool{true, false, false}); err == nil {
		t.Error("state count mismatch should error")
	}
}

func TestMultiChannelTagCount(t *testing.T) {
	c := newMulti(t, 0.05, 0.10)
	if c.Tags() != 2 {
		t.Errorf("tags = %d, want 2", c.Tags())
	}
	if c.Subchannels() != 30 || c.Antennas() != 3 {
		t.Errorf("shape = (%d, %d)", c.Subchannels(), c.Antennas())
	}
}

func TestMultiChannelIndependentContributions(t *testing.T) {
	c := newMulti(t, 0.05, 0.05)
	base, err := c.Observe(0, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	one, _ := c.Observe(0, []bool{true, false})
	two, _ := c.Observe(0, []bool{false, true})
	both, _ := c.Observe(0, []bool{true, true})
	// Contributions are additive in the complex domain.
	for a := range base {
		for k := range base[a] {
			want := one[a][k] + two[a][k] - base[a][k]
			if cmplx.Abs(want-both[a][k]) > 1e-9*cmplx.Abs(both[a][k]) {
				t.Fatalf("superposition violated at [%d][%d]", a, k)
			}
		}
	}
	// And each tag's contribution differs (independent fading paths).
	var d1, d2 float64
	for a := range base {
		for k := range base[a] {
			d1 += cmplx.Abs(one[a][k] - base[a][k])
			d2 += cmplx.Abs(two[a][k] - base[a][k])
		}
	}
	if d1 == 0 || d2 == 0 {
		t.Fatal("tag contributions missing")
	}
}

func TestMultiChannelDepthFallsWithDistance(t *testing.T) {
	c := newMulti(t, 0.05, 0.65)
	near, far := c.ModulationDepth(0), c.ModulationDepth(1)
	if near <= far {
		t.Errorf("depth should fall with distance: %v vs %v", near, far)
	}
	if math.Abs(near/far-13) > 0.5 {
		t.Errorf("depth ratio = %v, want ~13", near/far)
	}
	if c.ModulationDepth(5) != 0 {
		t.Error("out-of-range tag index should give 0")
	}
}

func TestModulationDepthClosedForm(t *testing.T) {
	// A tag's depth is its backscatter link budget over the direct one:
	// gHT·gTR·DifferentialGain / ampDir.
	cfg := DefaultChannelConfig()
	geo := Geometry{HelperToTag: 3, TagToReader: 0.05, HelperWalls: 1}
	c := newOneTag(t, cfg, geo, 7)
	lambda := cfg.Carrier.Wavelength()
	gHT := cfg.PathLoss.AmplitudeGain(geo.HelperToTag, geo.HelperWalls)
	gTR := FreeSpaceAmplitudeGain(geo.TagToReader, lambda)
	ampDir := cfg.PathLoss.AmplitudeGain(geo.helperReader(), geo.HelperWalls)
	want := gHT * gTR * cfg.Antenna.DifferentialGain(lambda) / ampDir
	if got := c.ModulationDepth(0); math.Abs(got-want) > 1e-12*want {
		t.Errorf("modulation depth = %v, want %v", got, want)
	}
}
