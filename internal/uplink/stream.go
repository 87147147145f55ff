package uplink

// This file is the incremental streaming core of the decoder. Every batch
// entry point (DecodeCSI, DecodeRSSI, DecodeSingleChannel, DecodeVariant)
// is a thin push-all-then-flush wrapper over StreamDecoder, so there is
// exactly one decode implementation of the §3.2 pipeline; only the
// long-range chip-code decoder (DecodeLongRange, §3.4) is a separate
// algorithm. See DESIGN.md §10 for the architecture and the equivalence
// argument.
//
// The memory contract: a StreamDecoder buffers only the measurements that
// fall inside the expected frame window [start, start+nbits·BitDuration).
// Out-of-frame pushes are validated, counted, and dropped, so a stream fed
// an arbitrarily long trace holds at most one frame's worth of samples —
// memory is bounded by the frame, not the trace. The frame arena lives in
// pooled dsp scratch slices and goes back to the pool the moment the frame
// decodes (or the stream fails or flushes).
//
// The latency contract: the paper's pipeline is frame-global — the
// conditioning normalization, the preamble correlation that ranks
// sub-channels, the MRC weights, and the hysteresis thresholds (µ ± σ/2 of
// the combined series) are all statistics of the whole frame — so no bit
// can be finalized before the frame's last measurement without changing
// the decoded output. The stream therefore emits every bit at the first
// push whose timestamp reaches the frame end (one packet after the
// postamble), not at end-of-trace the way the old batch path did.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/csi"
	"repro/internal/dsp"
)

// StreamMode selects the measurement source a StreamDecoder decodes from,
// mirroring the DecodeCSI / DecodeRSSI batch entry points.
type StreamMode int

// Stream modes.
const (
	// StreamCSI decodes from per-sub-channel CSI (§3.2).
	StreamCSI StreamMode = iota
	// StreamRSSI decodes from per-antenna RSSI only (§3.3).
	StreamRSSI
)

// String implements fmt.Stringer.
func (m StreamMode) String() string {
	if m == StreamRSSI {
		return "rssi"
	}
	return "csi"
}

// BitDecision is one decoded payload bit emitted by the streaming core.
type BitDecision struct {
	// Index is the payload bit position (0-based, framing excluded).
	Index int
	// Bit is the decoded value.
	Bit bool
	// Measurements is the number of channel measurements in the bit's
	// timestamp bin (0 means the majority vote defaulted to false).
	Measurements int
}

// StreamDecoder decodes one expected tag transmission incrementally: feed
// it measurements in timestamp order with Push as they arrive, and it
// emits the frame's bits as soon as a push's timestamp passes the frame
// end. Flush finalizes a stream whose trace ended inside the frame
// (decoding whatever arrived) and returns the full Result.
//
// Push requires non-decreasing timestamps — equal timestamps are legal,
// exactly as csi.Series.Append/TrimBefore document for the capture side,
// so a capture that timestamps two packets identically (coarse clocks do)
// decodes the same live as it does in batch — and a consistent
// measurement shape; violations return an error and poison the stream
// (every later call returns the same error) — never a panic. A
// StreamDecoder is single-use and not safe for concurrent use.
type StreamDecoder struct {
	d    *Decoder
	mode StreamMode
	// single restricts the decode to one CSI channel (the
	// DecodeSingleChannel baseline).
	single              bool
	antenna, subchannel int
	// v is the pipeline variant (binning, combining, decision rule);
	// only DecodeVariant sets it, every other entry point runs the
	// paper's zero variant.
	v Variant

	start, end float64
	payloadLen int
	nbits      int

	// Shape, learned from the first push.
	shaped     bool
	ants, subs int

	pushes  int
	last    float64
	hasLast bool

	// The frame arena: pooled buffers holding only in-frame samples.
	// ts[i] and chans[c][i] describe the i-th in-frame measurement; the
	// channel order is a·subs+k for CSI (matching the batch scan order),
	// a for RSSI, and a single slot in single-channel mode.
	ts     []float64
	chans  [][]float64
	n      int
	arena  int // current buffer capacity
	closed bool

	decoded bool
	emitted []BitDecision
	res     *Result
	err     error
}

// NewStream returns a streaming decoder for one transmission of
// payloadLen payload bits starting at start, decoding in the given mode.
func (d *Decoder) NewStream(start float64, payloadLen int, mode StreamMode) (*StreamDecoder, error) {
	if mode != StreamCSI && mode != StreamRSSI {
		return nil, fmt.Errorf("uplink: unknown stream mode %d", int(mode))
	}
	return d.newStream(start, payloadLen, mode, false, 0, 0)
}

// NewSingleChannelStream is NewStream restricted to exactly one CSI
// channel — the streaming form of DecodeSingleChannel.
func (d *Decoder) NewSingleChannelStream(start float64, payloadLen, antenna, subchannel int) (*StreamDecoder, error) {
	if antenna < 0 || subchannel < 0 {
		return nil, fmt.Errorf("uplink: stream channel (%d, %d) out of range", antenna, subchannel)
	}
	return d.newStream(start, payloadLen, StreamCSI, true, antenna, subchannel)
}

func (d *Decoder) newStream(start float64, payloadLen int, mode StreamMode, single bool, antenna, subchannel int) (*StreamDecoder, error) {
	if payloadLen <= 0 {
		return nil, fmt.Errorf("uplink: payload length must be positive, got %d", payloadLen)
	}
	nbits := nFrameBits(payloadLen)
	return &StreamDecoder{
		d: d, mode: mode, single: single, antenna: antenna, subchannel: subchannel,
		start: start, end: start + float64(nbits)*d.cfg.BitDuration,
		payloadLen: payloadLen, nbits: nbits,
	}, nil
}

// Start returns the expected frame start time.
func (sd *StreamDecoder) Start() float64 { return sd.start }

// End returns the expected frame end time (postamble included); the push
// that reaches it triggers the decode.
func (sd *StreamDecoder) End() float64 { return sd.end }

// Buffered returns the number of in-frame measurements currently held —
// the quantity the uplink.stream.buffer_highwater gauge tracks.
func (sd *StreamDecoder) Buffered() int { return sd.n }

// Done reports whether the frame has been decoded (bits emitted).
func (sd *StreamDecoder) Done() bool { return sd.decoded }

// Bits returns every bit decision emitted so far (nil before the frame
// closes). The slice is owned by the stream; do not mutate it.
func (sd *StreamDecoder) Bits() []BitDecision { return sd.emitted }

// Push feeds one measurement. Mid-frame pushes buffer and return nil; the
// first push whose timestamp reaches the frame end decodes the frame and
// returns every payload bit at once (the pipeline is frame-global, so
// that is the earliest any bit can be final — see the file comment).
// Steady-state pushes do not allocate: samples land in pooled buffers
// that grow geometrically up to the frame size.
func (sd *StreamDecoder) Push(m csi.Measurement) ([]BitDecision, error) {
	if sd.err != nil {
		return nil, sd.err
	}
	if sd.closed {
		// Invalid use, but the completed result stays retrievable: do not
		// poison a stream that already flushed successfully.
		return nil, fmt.Errorf("uplink: Push on a flushed stream")
	}
	if err := sd.checkShape(m); err != nil {
		return nil, sd.fail(err)
	}
	t := m.Timestamp
	if math.IsNaN(t) {
		return nil, sd.fail(fmt.Errorf("uplink: push %d has a NaN timestamp", sd.pushes))
	}
	if sd.hasLast && t < sd.last {
		return nil, sd.fail(fmt.Errorf("uplink: push %d timestamp %v goes backwards past %v; pushes must arrive in non-decreasing timestamp order",
			sd.pushes, t, sd.last))
	}
	sd.last, sd.hasLast = t, true
	sd.pushes++
	sd.d.met.streamPushes.Inc()
	// In-frame membership mirrors the batch frameRange slice: t in
	// [start, end). Anything else is dropped after validation, which is
	// what bounds the arena.
	if t >= sd.start && t < sd.end {
		sd.store(m)
		sd.d.met.streamHighwater.Set(float64(sd.n))
		return nil, nil
	}
	if !sd.decoded && t >= sd.end && sd.n > 0 {
		if err := sd.decode(false); err != nil {
			return nil, sd.fail(err)
		}
		return sd.emitted, nil
	}
	return nil, nil
}

// Flush closes the stream and returns the decode Result. If the frame had
// not closed yet (the trace ended inside it), whatever arrived is decoded
// now — the truncated-trace path the batch wrappers rely on. Flush is
// idempotent; Push is invalid afterwards.
func (sd *StreamDecoder) Flush() (*Result, error) {
	if sd.err != nil {
		return nil, sd.err
	}
	if sd.closed {
		return sd.res, nil
	}
	sd.closed = true
	if !sd.decoded {
		if sd.n == 0 {
			return nil, sd.fail(fmt.Errorf("uplink: no measurements inside the transmission window"))
		}
		if err := sd.decode(true); err != nil {
			return nil, sd.fail(err)
		}
	}
	return sd.res, nil
}

// fail poisons the stream and releases the arena.
func (sd *StreamDecoder) fail(err error) error {
	sd.err = err
	sd.release()
	return err
}

// checkShape validates a measurement against the stream's shape (learned
// from the first push), so store can never index out of range.
func (sd *StreamDecoder) checkShape(m csi.Measurement) error {
	if !sd.shaped {
		sd.ants = len(m.CSI)
		if sd.ants > 0 {
			sd.subs = len(m.CSI[0])
		}
	}
	if len(m.CSI) != sd.ants || len(m.RSSI) != sd.ants {
		return fmt.Errorf("uplink: push %d has %d CSI rows and %d RSSI entries, want %d of each",
			sd.pushes, len(m.CSI), len(m.RSSI), sd.ants)
	}
	for a, row := range m.CSI {
		if len(row) != sd.subs {
			return fmt.Errorf("uplink: push %d antenna %d has %d sub-channels, want %d",
				sd.pushes, a, len(row), sd.subs)
		}
	}
	if !sd.shaped {
		sd.shaped = true
		if sd.single && (sd.antenna >= sd.ants || sd.subchannel >= sd.subs) {
			return fmt.Errorf("uplink: stream channel (%d, %d) out of range (%d antennas, %d sub-channels)",
				sd.antenna, sd.subchannel, sd.ants, sd.subs)
		}
	}
	return nil
}

// nchan returns the number of channel lanes the mode scans.
func (sd *StreamDecoder) nchan() int {
	switch {
	case sd.single:
		return 1
	case sd.mode == StreamRSSI:
		return sd.ants
	default:
		return sd.ants * sd.subs
	}
}

// store appends one in-frame measurement to the arena.
func (sd *StreamDecoder) store(m csi.Measurement) {
	if sd.n == sd.arena {
		sd.grow()
	}
	i := sd.n
	sd.ts[i] = m.Timestamp
	switch {
	case sd.single:
		sd.chans[0][i] = m.CSI[sd.antenna][sd.subchannel]
	case sd.mode == StreamRSSI:
		for a := 0; a < sd.ants; a++ {
			sd.chans[a][i] = m.RSSI[a]
		}
	default:
		for a := 0; a < sd.ants; a++ {
			row := m.CSI[a]
			base := a * sd.subs
			for k := 0; k < sd.subs; k++ {
				sd.chans[base+k][i] = row[k]
			}
		}
	}
	sd.n++
}

// grow doubles the arena's pooled buffers. Growth tops out at the frame's
// measurement count because out-of-frame pushes are never stored.
func (sd *StreamDecoder) grow() {
	c := sd.arena * 2
	if c == 0 {
		c = 128
	}
	if sd.chans == nil {
		sd.chans = make([][]float64, sd.nchan())
	}
	//wblint:ignore PH004 the arena deliberately lives on sd across pushes; StreamDecoder.release returns every buffer to the pool on decode/flush/fail
	sd.ts = growPooled(sd.ts, sd.n, c)
	for i := range sd.chans {
		//wblint:ignore PH004 same arena ownership as sd.ts: released by StreamDecoder.release on every exit path
		sd.chans[i] = growPooled(sd.chans[i], sd.n, c)
	}
	sd.arena = c
}

// growPooled moves n live samples into a larger pooled buffer, releasing
// the old one.
func growPooled(old []float64, n, c int) []float64 {
	buf := dsp.GetSlice(c)
	copy(buf, old[:n])
	dsp.PutSlice(old)
	//wblint:ignore PH003 ownership stays with the StreamDecoder's frame arena; StreamDecoder.release returns it to the pool at decode/flush/fail time
	return buf
}

// release returns the frame arena to the pool.
func (sd *StreamDecoder) release() {
	dsp.PutSlice(sd.ts)
	sd.ts = nil
	for i := range sd.chans {
		dsp.PutSlice(sd.chans[i])
		sd.chans[i] = nil
	}
	sd.n, sd.arena = 0, 0
}

// decode runs the paper's pipeline over the buffered frame — the single
// implementation behind every entry point. The numerics and the metric
// increments are exactly the historical batch decode's: bin by timestamp,
// impair + condition + score each channel in scan order, select, MRC,
// hysteresis, vote. The stream's variant swaps the binning here and the
// selection, weights and decision rule in combineAndDecide.
func (sd *StreamDecoder) decode(atFlush bool) error {
	sd.decoded = true
	d := sd.d
	ts := sd.ts[:sd.n]
	var bins [][]int
	if sd.v.Binning == BinEqualCount {
		bins = binEqualCount(ts, sd.start, d.cfg.BitDuration, sd.nbits)
	} else {
		bins = binByTimestamp(ts, sd.start, d.cfg.BitDuration, sd.nbits)
	}
	var res *Result
	var err error
	switch {
	case sd.single:
		id := ChannelID{sd.antenna, sd.subchannel}
		raw := sd.chans[0][:sd.n]
		if d.Impair != nil {
			d.Impair.ImpairChannel(id, ts, raw)
		}
		st := analyzeChannel(id, raw, ts, bins, d.cfg)
		d.met.channelsAnalyzed.Inc()
		res, err = d.combineSelected([]channelStats{st}, bins, sd.payloadLen, sd.v)
		dsp.PutSlice(st.cond)
	case sd.mode == StreamRSSI:
		stats := make([]channelStats, 0, sd.ants)
		for a := 0; a < sd.ants; a++ {
			raw := sd.chans[a][:sd.n]
			if d.Impair != nil {
				d.Impair.ImpairChannel(ChannelID{a, -1}, ts, raw)
			}
			stats = append(stats, analyzeChannel(ChannelID{a, -1}, raw, ts, bins, d.cfg))
			d.met.channelsAnalyzed.Inc()
		}
		if len(stats) == 0 {
			err = fmt.Errorf("uplink: series has no antennas")
		} else {
			// RSSI mode uses the single best channel.
			//wblint:ignore HP002 the comparator runs once per frame close, not per push; sort.Slice's unstable tie order is pinned by the golden traces
			sort.Slice(stats, func(i, j int) bool { //wblint:ignore HP001 boxing the slice header is once per frame close, not per push; see the HP002 reason above
				return math.Abs(stats[i].corr) > math.Abs(stats[j].corr)
			})
			d.met.channelsRejected.Add(int64(len(stats) - 1))
			res, err = d.combineSelected(stats[:1], bins, sd.payloadLen, sd.v)
		}
		releaseStats(stats)
	default:
		stats := make([]channelStats, 0, sd.ants*sd.subs)
		for a := 0; a < sd.ants; a++ {
			for k := 0; k < sd.subs; k++ {
				id := ChannelID{a, k}
				raw := sd.chans[a*sd.subs+k][:sd.n]
				if d.Impair != nil {
					d.Impair.ImpairChannel(id, ts, raw)
				}
				stats = append(stats, analyzeChannel(id, raw, ts, bins, d.cfg))
				d.met.channelsAnalyzed.Inc()
			}
		}
		res, err = d.combineAndDecide(stats, bins, sd.payloadLen, sd.v)
		releaseStats(stats)
	}
	sd.release()
	if err != nil {
		return err
	}
	sd.res = res
	sd.emitted = make([]BitDecision, len(res.Payload))
	for i, bit := range res.Payload {
		sd.emitted[i] = BitDecision{Index: i, Bit: bit, Measurements: len(bins[13+i])}
	}
	d.met.streamBitsEmitted.Add(int64(len(sd.emitted)))
	if atFlush {
		d.met.streamFlushBits.Add(int64(len(sd.emitted)))
	}
	return nil
}
