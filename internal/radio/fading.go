package radio

import (
	"math"
	"math/cmplx"

	"repro/internal/rng"
	"repro/internal/units"
)

// Multipath models a frequency-selective fading channel as a tap delay line
// with an exponential power-delay profile. Its frequency response is
// evaluated at arbitrary subcarrier offsets, and the taps evolve in time as
// an AR(1) (Gauss-Markov) process so the channel drifts slowly, as an
// indoor environment with people moving does.
type Multipath struct {
	taps      []complex128
	delays    []float64 // seconds
	powers    []float64 // stationary power of each scattered tap
	coherence float64   // seconds; time for correlation to fall to 1/e
	lastTime  float64   // seconds of last evolution
	stream    *rng.Stream
	// los holds the optional fixed line-of-sight component of tap 0.
	los complex128
}

// MultipathConfig configures a Multipath channel.
type MultipathConfig struct {
	// Taps is the number of scattered paths (>= 1).
	Taps int
	// DelaySpread is the RMS delay spread; indoor offices measure
	// 30–100 ns.
	DelaySpread float64 // seconds
	// RiceK is the Rician K-factor (linear power ratio of the LOS
	// component to the scattered power). 0 means pure Rayleigh.
	RiceK float64
	// CoherenceTime is the 1/e temporal decorrelation time of the taps.
	// Zero disables temporal evolution (a static channel).
	CoherenceTime float64 // seconds
}

// DefaultMultipathConfig returns parameters representative of the paper's
// office environment.
func DefaultMultipathConfig() MultipathConfig {
	return MultipathConfig{
		Taps:          8,
		DelaySpread:   60e-9,
		RiceK:         4,
		CoherenceTime: 300,
	}
}

// NewMultipath draws a random channel realization from the config using the
// given stream. Total average power is normalized to 1 (E[|H(f)|²] = 1), so
// large-scale path gain is applied separately.
func NewMultipath(cfg MultipathConfig, stream *rng.Stream) *Multipath {
	n := cfg.Taps
	if n < 1 {
		n = 1
	}
	m := &Multipath{
		taps:      make([]complex128, n),
		delays:    make([]float64, n),
		coherence: cfg.CoherenceTime,
		stream:    stream,
	}
	// Exponential power delay profile over taps spaced at half the delay
	// spread, which yields an RMS delay spread close to cfg.DelaySpread.
	spacing := cfg.DelaySpread / 2
	if spacing <= 0 {
		spacing = 1e-9
	}
	var totalScatter float64
	powers := make([]float64, n)
	for i := 0; i < n; i++ {
		m.delays[i] = float64(i) * spacing
		if cfg.DelaySpread > 0 {
			powers[i] = math.Exp(-m.delays[i] / cfg.DelaySpread)
		} else {
			powers[i] = 1
		}
		totalScatter += powers[i]
	}
	// Split unit power between LOS and scatter according to K.
	scatterPower := 1.0
	losPower := 0.0
	if cfg.RiceK > 0 {
		losPower = cfg.RiceK / (1 + cfg.RiceK)
		scatterPower = 1 / (1 + cfg.RiceK)
	}
	m.powers = make([]float64, n)
	for i := 0; i < n; i++ {
		m.powers[i] = powers[i] / totalScatter * scatterPower
		m.taps[i] = stream.ComplexGaussian(m.powers[i])
	}
	if losPower > 0 {
		phase := stream.Float64() * 2 * math.Pi
		m.los = cmplx.Rect(math.Sqrt(losPower), phase)
	}
	return m
}

// EvolveTo advances the channel's scattered taps to absolute time t seconds
// using a Gauss-Markov innovation whose correlation decays with the
// coherence time. Times earlier than the last evolution are ignored.
func (m *Multipath) EvolveTo(t float64) {
	if m.coherence <= 0 || t <= m.lastTime {
		if t > m.lastTime {
			m.lastTime = t
		}
		return
	}
	dt := t - m.lastTime
	m.lastTime = t
	rho := math.Exp(-dt / m.coherence)
	innov := math.Sqrt(1 - rho*rho)
	for i, tap := range m.taps {
		// The innovation variance matches the tap's stationary power so
		// the power-delay profile is invariant under evolution.
		m.taps[i] = tap*complex(rho, 0) + m.stream.ComplexGaussian(m.powers[i])*complex(innov, 0)
	}
}

// Response returns the complex channel gain at a frequency offset (Hz) from
// the carrier.
func (m *Multipath) Response(offset units.Hertz) complex128 {
	h := m.los
	for i, tap := range m.taps {
		h += tap * phasor(offset, m.delays[i])
	}
	return h
}

// phasor is a tap's rotation e^{-j2π·f·τ} at offset f for delay τ.
func phasor(offset units.Hertz, delay float64) complex128 {
	return cmplx.Rect(1, -2*math.Pi*float64(offset)*delay)
}

// phasorTable tabulates phasor(offsets[k], m.delays[i]) at [k*taps+i], one
// row of tap rotations per offset.
func (m *Multipath) phasorTable(offsets []units.Hertz) []complex128 {
	n := len(m.delays)
	rot := make([]complex128, len(offsets)*n)
	for k, f := range offsets {
		for i, d := range m.delays {
			rot[k*n+i] = phasor(f, d)
		}
	}
	return rot
}

// responseFrom is Response at the offset whose phasorTable row is rot. It
// performs the same operations on the same values in the same order, so
// its result is bit-identical, without a Sincos per tap.
func (m *Multipath) responseFrom(rot []complex128) complex128 {
	rot = rot[:len(m.taps)]
	h := m.los
	for i, tap := range m.taps {
		h += tap * rot[i]
	}
	return h
}

// ResponseAt evaluates the response on a set of frequency offsets.
func (m *Multipath) ResponseAt(offsets []units.Hertz) []complex128 {
	out := make([]complex128, len(offsets))
	for i, f := range offsets {
		out[i] = m.Response(f)
	}
	return out
}
