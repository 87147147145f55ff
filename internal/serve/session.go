package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/csi"
	"repro/internal/uplink"
)

// Session is one admitted decode stream. Producers (a TCP handler, or an
// in-process caller) feed measurements with Push/TryPush; a dedicated
// worker goroutine drains them through the session's StreamDecoder and
// emits bits on the sink as the frame closes. Finish ends the input and
// flushes; Result blocks for the final outcome.
//
// Memory is bounded and steady-state allocation-free by construction:
// the session owns a fixed ring of preallocated measurement slots sized
// to the declared shape. Push copies into a free slot and hands the slot
// index to the worker; the worker hands it back after the decoder copies
// the sample into its pooled frame arena. The two index channels (free
// and in) each hold every slot, so channel sends never block — only the
// free-slot receive does, and that wait is the backpressure.
type Session struct {
	srv  *Server
	id   uint64
	p    SessionParams
	sd   *uplink.StreamDecoder
	sink Sink

	slots []csi.Measurement
	free  chan int32
	in    chan int32

	// pmu serializes producers with each other and with Finish, so a
	// slot is never written while its index is in flight and in is never
	// closed under a pending send.
	pmu    sync.Mutex
	closed bool

	quit    chan struct{} // closed by abort; unblocks a waiting Push
	quitted atomic.Int32  // CAS guard for closing quit (no closure: abort sits on watchdog hot paths)
	done    chan struct{} // closed when the worker has delivered the result

	emu sync.Mutex
	err error
	res *uplink.Result

	cmu    sync.Mutex
	closer closer // transport to force-close on abort

	// Resume state. rs is non-nil exactly when the session was opened
	// Resumable; token is its stable resume handle.
	rs    *resumeSink
	token string
	// consumed counts measurements accepted into the ring; a resuming
	// client reads it back as seq= and skips that many. gen fences
	// producers across a resume steal: wire pushes carry the generation
	// they attached under and ErrSessionClosed out once it moves on.
	consumed atomic.Int64
	gen      atomic.Uint32
	// Park bookkeeping, owned by srv.mu.
	detached bool
	parkedAt time.Time
	parkOrd  int64
	// prodExit, when non-nil, is closed by the current wire producer
	// (the TCP handler) on exit; ResumeSession waits on it so the old
	// connection's delivered lines are fully consumed before the resume
	// cursor is snapshotted.
	prodMu   sync.Mutex
	prodExit chan struct{}

	// Watchdog state: progress counts processed slots plus lifecycle
	// steps, busy marks the worker inside a Push/finalize (a stall there
	// counts even with an empty ring). wdProgress/wdIdle are touched only
	// by the watchdog goroutine.
	progress   atomic.Int64
	busy       atomic.Int32
	wdProgress int64
	wdIdle     int
}

// newSession builds the session and its preallocated slot ring. The
// caller holds srv.mu and starts the worker.
func newSession(srv *Server, id uint64, p SessionParams, sink Sink) (*Session, error) {
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(1 / p.BitRate))
	if err != nil {
		return nil, err
	}
	sd, err := dec.NewStream(p.Start, p.PayloadLen, p.Mode)
	if err != nil {
		return nil, err
	}
	nslots := srv.cfg.sessionBuffer()
	s := &Session{
		srv:   srv,
		id:    id,
		p:     p,
		sd:    sd,
		sink:  sink,
		slots: make([]csi.Measurement, nslots),
		free:  make(chan int32, nslots),
		in:    make(chan int32, nslots),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := range s.slots {
		if p.Subchannels > 0 {
			rows := make([][]float64, p.Antennas)
			flat := make([]float64, p.Antennas*p.Subchannels)
			for a := range rows {
				rows[a] = flat[a*p.Subchannels : (a+1)*p.Subchannels : (a+1)*p.Subchannels]
			}
			s.slots[i].CSI = rows
		}
		s.slots[i].RSSI = make([]float64, p.Antennas)
		s.free <- int32(i)
	}
	if p.Resumable {
		s.rs = &resumeSink{
			s:     s,
			inner: sink,
			bits:  make([]uplink.BitDecision, 0, p.PayloadLen),
		}
		s.sink = s.rs
	}
	return s, nil
}

// ID returns the session's server-unique identifier.
func (s *Session) ID() uint64 { return s.id }

// Params returns the parameters the session was opened with.
func (s *Session) Params() SessionParams { return s.p }

// Token returns the session's resume token ("" unless Resumable).
func (s *Session) Token() string { return s.token }

// Consumed returns how many measurements the session has accepted; a
// resuming client skips that many from its replay buffer.
func (s *Session) Consumed() int64 { return s.consumed.Load() }

// beginProducer marks a wire handler as the session's current producer.
// The returned channel must be handed to endProducer when the handler
// exits; ResumeSession waits on it so a resume cannot snapshot the
// cursor while delivered lines are still being consumed.
func (s *Session) beginProducer() chan struct{} {
	ch := make(chan struct{})
	s.prodMu.Lock()
	s.prodExit = ch
	s.prodMu.Unlock()
	return ch
}

// endProducer retires a wire producer: deregister (unless a newer one
// took over) and wake any resume waiting on the drain.
func (s *Session) endProducer(ch chan struct{}) {
	s.prodMu.Lock()
	if s.prodExit == ch {
		s.prodExit = nil
	}
	s.prodMu.Unlock()
	close(ch)
}

// producerExit returns the current wire producer's exit channel, nil if
// no wire producer owns the session.
func (s *Session) producerExit() <-chan struct{} {
	s.prodMu.Lock()
	defer s.prodMu.Unlock()
	return s.prodExit
}

// Push copies one measurement into the session, blocking while the slot
// ring is full (the backpressure path — at a TCP transport the blocked
// reader stalls the client's sends). It fails with ErrSessionClosed
// after Finish or an abort, and with the session's sticky error once
// poisoned.
func (s *Session) Push(m csi.Measurement) error { return s.push(m, true, 0, false) }

// TryPush is Push without the wait: a full slot ring returns
// ErrBufferFull immediately (wrapped in a RetryError carrying the
// backoff hint) and drops nothing already queued.
func (s *Session) TryPush(m csi.Measurement) error { return s.push(m, false, 0, false) }

// pushAs is the wire producer's Push: it carries the generation the
// handler attached under, so a handler whose session was stolen by a
// resume on a newer connection fails out with ErrSessionClosed instead
// of feeding measurements into the new owner's stream.
func (s *Session) pushAs(gen uint32, m csi.Measurement) error {
	return s.push(m, true, gen, true)
}

func (s *Session) push(m csi.Measurement, wait bool, gen uint32, fenced bool) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if fenced && gen != s.gen.Load() {
		return ErrSessionClosed
	}
	if s.closed {
		return ErrSessionClosed
	}
	if err := s.Err(); err != nil {
		return err
	}
	select {
	case <-s.quit:
		// Aborted: refuse deterministically even while slots are free.
		return ErrSessionClosed
	default:
	}
	var idx int32
	if wait {
		select {
		case idx = <-s.free:
		case <-s.quit:
			return ErrSessionClosed
		}
	} else {
		select {
		case idx = <-s.free:
		default:
			s.srv.met.bufferFull.Add(1)
			// A full ring is occupancy 1 by definition; the server-wide
			// Pressure() would need srv.mu, which this path must not take.
			return s.srv.retryErr(ErrBufferFull, 1)
		}
	}
	if err := s.copyInto(idx, m); err != nil {
		// A shape violation poisons this session exactly like the
		// decoder's own shape check would — sticky error, input closed,
		// the failure emitted on the sink — and touches nobody else.
		s.free <- idx
		if s.setErr(err) {
			s.srv.met.poisoned.Add(1)
		}
		s.finishLocked()
		return err
	}
	s.in <- idx
	s.consumed.Add(1)
	s.srv.met.queued.Add(1)
	s.srv.met.noteQueueDepth(len(s.in))
	s.srv.met.measurements.Add(1)
	return nil
}

// copyInto copies m into slot idx, enforcing the declared shape.
func (s *Session) copyInto(idx int32, m csi.Measurement) error {
	dst := &s.slots[idx]
	if len(m.RSSI) != s.p.Antennas {
		return fmt.Errorf("serve: measurement has %d RSSI antennas, session declared %d",
			len(m.RSSI), s.p.Antennas)
	}
	if s.p.Subchannels > 0 {
		if len(m.CSI) != s.p.Antennas {
			return fmt.Errorf("serve: measurement has %d CSI antennas, session declared %d",
				len(m.CSI), s.p.Antennas)
		}
		for a, row := range m.CSI {
			if len(row) != s.p.Subchannels {
				return fmt.Errorf("serve: antenna %d has %d sub-channels, session declared %d",
					a, len(row), s.p.Subchannels)
			}
			copy(dst.CSI[a], row)
		}
	} else if len(m.CSI) != 0 {
		return fmt.Errorf("serve: measurement carries CSI, session declared an RSSI-only shape")
	}
	copy(dst.RSSI, m.RSSI)
	dst.Timestamp = m.Timestamp
	return nil
}

// Finish ends the session's input; the worker flushes the stream (the
// partial-frame salvage batch decoders do at end of trace) and delivers
// the final result on the sink. Finish is idempotent and safe to call
// concurrently with producers.
func (s *Session) Finish() {
	s.pmu.Lock()
	s.finishLocked()
	s.pmu.Unlock()
}

func (s *Session) finishLocked() {
	if !s.closed {
		s.closed = true
		close(s.in)
	}
}

// abort force-ends the session — the drain deadline, the watchdog's
// stall verdict, a shed preemption, or a checkpoint eviction: it
// unblocks any producer waiting for a slot and closes the session's
// transport, which unblocks a worker stuck writing to a dead client.
// The input is closed by the normal Finish path once the producer backs
// off.
func (s *Session) abort() {
	if s.quitted.CompareAndSwap(0, 1) {
		close(s.quit)
	}
	s.cmu.Lock()
	c := s.closer
	s.cmu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// SetCloser registers the transport abort should force-close.
func (s *Session) SetCloser(c closer) {
	s.cmu.Lock()
	s.closer = c
	s.cmu.Unlock()
}

// swapCloser installs a new transport and returns the previous one (the
// resume steal path closes the old connection outside srv.mu).
func (s *Session) swapCloser(c closer) closer {
	s.cmu.Lock()
	old := s.closer
	s.closer = c
	s.cmu.Unlock()
	return old
}

// Done returns a channel closed once the worker has delivered the final
// result.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the session's sticky error, if any.
func (s *Session) Err() error {
	s.emu.Lock()
	defer s.emu.Unlock()
	return s.err
}

// setErr records the session's sticky error and reports whether this
// call was the one that set it — callers count poisoned/stalled/shed
// verdicts only on a true return, so a session dies under exactly one
// accounting bucket.
func (s *Session) setErr(err error) bool {
	s.emu.Lock()
	first := s.err == nil
	if first {
		s.err = err
	}
	s.emu.Unlock()
	return first
}

// Result blocks until the session completes and returns its outcome.
func (s *Session) Result() (*uplink.Result, error) {
	<-s.done
	s.emu.Lock()
	defer s.emu.Unlock()
	return s.res, s.err
}

// loop is the session's worker: the per-measurement serving hot path (a
// wblint hot-path root — no boxing, no escaping closures, no unbounded
// append). It drains the slot ring through the stream decoder, recycles
// each slot the moment the decoder has copied it into the pooled frame
// arena, and emits bits on the sink as soon as the frame closes. A
// decode or sink error poisons only this session: remaining queued slots
// drain without decoding and the error is delivered once at the end.
func (s *Session) loop() {
	poisoned := false
	for idx := range s.in {
		s.srv.met.queued.Add(-1)
		if poisoned {
			s.free <- idx
			s.progress.Add(1)
			continue
		}
		s.busy.Store(1)
		bits, err := s.sd.Push(s.slots[idx])
		s.free <- idx
		if err != nil {
			if s.setErr(err) {
				s.srv.met.poisoned.Add(1)
			}
			poisoned = true
			s.busy.Store(0)
			s.progress.Add(1)
			continue
		}
		if len(bits) == 0 {
			s.busy.Store(0)
			s.progress.Add(1)
			continue
		}
		s.srv.met.bitsServed.Add(int64(len(bits)))
		if err := s.sink.EmitBits(bits); err != nil {
			if s.setErr(err) {
				s.srv.met.poisoned.Add(1)
			}
			poisoned = true
		}
		s.busy.Store(0)
		s.progress.Add(1)
	}
	s.busy.Store(1)
	s.finalize()
}

// finalize flushes the stream (unless poisoned), delivers the final
// outcome on the sink, and retires the session.
func (s *Session) finalize() {
	err := s.Err()
	var res *uplink.Result
	if err == nil {
		res, err = s.sd.Flush()
		if err != nil {
			s.setErr(err)
		} else {
			s.emu.Lock()
			s.res = res
			s.emu.Unlock()
			s.srv.met.completed.Add(1)
		}
	}
	s.sink.EmitResult(res, err)
	s.srv.sessionClosed(s)
	close(s.done)
	s.srv.wg.Done()
}
