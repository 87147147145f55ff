package radio

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/units"
)

// MultiChannel is the composite uplink channel of one or more tags
// sharing a reader:
//
//	H[a][k] = H_direct[a](f_k) + Σ_i s_i · A_i · H_ht,i(f_k) · H_tr,i[a](f_k)
//
// where s_i ∈ {0, 1} is tag i's switch state, A_i the product of its two
// hop path gains and its differential scattering gain, a indexes reader
// antennas and k sub-channels. Each tag contributes its own backscatter
// path with independent fading, so two tags modulating simultaneously
// interfere at the reader — the physical basis for inventory collisions
// (§2's EPC Gen-2 discussion).
type MultiChannel struct {
	cfg     ChannelConfig
	offsets []units.Hertz
	// rot is the phasor table every path is evaluated through:
	// rot[k*taps+i] = e^{-j2π·f_k·τ_i}. All paths are drawn with
	// cfg.Multipath's Taps and DelaySpread (the tag→reader hop changes
	// only RiceK), so they share their tap delays and this one table.
	rot      []complex128
	direct   []*Multipath
	ampDir   float64
	scale    float64
	antennas int
	stream   *rng.Stream
	geoBase  Geometry
	tags     []*tagPath
}

// tagPath is one tag's backscatter contribution.
type tagPath struct {
	helpTag *Multipath
	tagRead []*Multipath
	ampBack float64
	// help is scratch for helpTag's response on every sub-channel. It
	// does not depend on the antenna, so ObserveInto evaluates it once
	// per call.
	help []complex128
}

// NewMultiChannel builds a channel with no tags; add them with AddTag. The
// geometry supplies the helper/reader placement; per-tag distances come
// from AddTag.
func NewMultiChannel(cfg ChannelConfig, geo Geometry, stream *rng.Stream) (*MultiChannel, error) {
	if cfg.Subchannels <= 0 || cfg.Antennas <= 0 {
		return nil, fmt.Errorf("radio: channel needs positive subchannels and antennas, got %d, %d",
			cfg.Subchannels, cfg.Antennas)
	}
	if geo.HelperToTag <= 0 {
		return nil, fmt.Errorf("radio: helper distance must be positive: %+v", geo)
	}
	c := &MultiChannel{
		cfg:      cfg,
		scale:    cfg.CSIScale,
		antennas: cfg.Antennas,
		stream:   stream,
		geoBase:  geo,
	}
	c.offsets = make([]units.Hertz, cfg.Subchannels)
	for k := range c.offsets {
		c.offsets[k] = units.Hertz(float64(k)-float64(cfg.Subchannels-1)/2) * cfg.SubchannelSpacing
	}
	c.direct = make([]*Multipath, cfg.Antennas)
	for a := 0; a < cfg.Antennas; a++ {
		c.direct[a] = NewMultipath(cfg.Multipath, stream.Split(fmt.Sprintf("direct-%d", a)))
	}
	c.rot = c.direct[0].phasorTable(c.offsets)
	c.ampDir = cfg.PathLoss.AmplitudeGain(geo.helperReader(), geo.HelperWalls)
	return c, nil
}

// AddTag adds a tag at the given distance from the reader and returns its
// index. The helper→tag distance defaults to the base geometry's.
func (c *MultiChannel) AddTag(tagToReader units.Meters) (int, error) {
	if tagToReader <= 0 {
		return 0, fmt.Errorf("radio: tag distance must be positive, got %v", tagToReader)
	}
	idx := len(c.tags)
	tp := &tagPath{
		helpTag: NewMultipath(c.cfg.Multipath, c.stream.Split(fmt.Sprintf("tag%d-helptag", idx))),
		tagRead: make([]*Multipath, c.antennas),
		help:    make([]complex128, len(c.offsets)),
	}
	trCfg := c.cfg.Multipath
	trCfg.RiceK = 10
	for a := 0; a < c.antennas; a++ {
		tp.tagRead[a] = NewMultipath(trCfg, c.stream.Split(fmt.Sprintf("tag%d-tagread-%d", idx, a)))
	}
	lambda := c.cfg.Carrier.Wavelength()
	gHT := c.cfg.PathLoss.AmplitudeGain(c.geoBase.HelperToTag, c.geoBase.HelperWalls)
	gTR := FreeSpaceAmplitudeGain(tagToReader, lambda)
	tp.ampBack = gHT * gTR * c.cfg.Antenna.DifferentialGain(lambda)
	c.tags = append(c.tags, tp)
	return idx, nil
}

// Tags returns the number of tags attached.
func (c *MultiChannel) Tags() int { return len(c.tags) }

// Subchannels returns the number of sub-channels.
func (c *MultiChannel) Subchannels() int { return len(c.offsets) }

// Antennas returns the number of reader antennas.
func (c *MultiChannel) Antennas() int { return c.antennas }

// ModulationDepth returns tag i's backscatter-to-direct amplitude ratio.
func (c *MultiChannel) ModulationDepth(i int) float64 {
	if i < 0 || i >= len(c.tags) || c.ampDir == 0 {
		return 0
	}
	return c.tags[i].ampBack / c.ampDir
}

// Observe returns the composite channel at time t given each tag's switch
// state, in freshly allocated rows indexed [antenna][sub-channel].
// len(reflecting) must equal Tags().
func (c *MultiChannel) Observe(t float64, reflecting []bool) ([][]complex128, error) {
	out := make([][]complex128, c.antennas)
	for a := range out {
		out[a] = make([]complex128, len(c.offsets))
	}
	if err := c.ObserveInto(out, t, reflecting); err != nil {
		return nil, err
	}
	return out, nil
}

// ObserveInto writes the composite channel at time t, given each tag's
// switch state, into dst, which must have Antennas() rows of
// Subchannels() entries; every entry is overwritten. The caller owns dst:
// ObserveInto keeps no reference to it, so one buffer can serve every
// observation. len(reflecting) must equal Tags().
func (c *MultiChannel) ObserveInto(dst [][]complex128, t float64, reflecting []bool) error {
	if len(reflecting) != len(c.tags) {
		return fmt.Errorf("radio: got %d states for %d tags", len(reflecting), len(c.tags))
	}
	if len(dst) != c.antennas {
		return fmt.Errorf("radio: got %d rows for %d antennas", len(dst), c.antennas)
	}
	for _, row := range dst {
		if len(row) != len(c.offsets) {
			return fmt.Errorf("radio: got a row of %d for %d sub-channels", len(row), len(c.offsets))
		}
	}
	n := len(c.direct[0].taps)
	for i, tp := range c.tags {
		tp.helpTag.EvolveTo(t)
		if !reflecting[i] {
			continue
		}
		for k := range tp.help {
			tp.help[k] = tp.helpTag.responseFrom(c.rot[k*n : (k+1)*n])
		}
	}
	for a, row := range dst {
		direct := c.direct[a]
		direct.EvolveTo(t)
		for _, tp := range c.tags {
			tp.tagRead[a].EvolveTo(t)
		}
		for k := range row {
			rot := c.rot[k*n : (k+1)*n]
			h := direct.responseFrom(rot) * complex(c.ampDir, 0)
			for i, tp := range c.tags {
				if !reflecting[i] {
					continue
				}
				h += tp.help[k] * tp.tagRead[a].responseFrom(rot) * complex(tp.ampBack, 0)
			}
			row[k] = h * complex(c.scale, 0)
		}
	}
	return nil
}
