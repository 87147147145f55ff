package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/uplink"
)

// Session resume (DESIGN.md §13). A session opened with
// SessionParams.Resumable gets a stable token and a bounded checkpoint:
// every emitted bit and the final result are recorded in a resumeSink
// wrapped around the transport sink. When the transport dies mid-stream
// the session parks instead of finishing — the decoder keeps its frame
// cursor, the slot ring keeps its pooled arena, and the recorded bits
// wait. A client reconnecting with "resume <token> <bits-received>"
// re-attaches, has exactly the missed suffix replayed, and continues
// byte-identical to an uninterrupted run. Parked checkpoints are bounded
// two ways: SweepResume evicts by TTL against a caller-supplied clock
// (the daemon's ticker, a test's fake time), and MaxParked evicts the
// oldest checkpoint on capacity pressure, both with eviction accounting.

// tokenLen is the fixed width of a resume token in hex digits; fixed
// width keeps resumable ok lines length-stable, which the chaos proxy's
// byte-offset schedules rely on.
const tokenLen = 16

// mintToken derives a stable resume token from the server's seed, the
// session id, and a collision nonce (FNV-64a over the three words).
func mintToken(seed, id, nonce uint64) string {
	h := uint64(1469598103934665603)
	for _, v := range [3]uint64{seed, id, nonce} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	const hexdigits = "0123456789abcdef"
	var b [tokenLen]byte
	for i := range b {
		b[i] = hexdigits[(h>>(60-4*i))&0xf]
	}
	return string(b[:])
}

// registerResumableLocked mints the session's token and enters it in
// the resume table. Caller holds srv.mu.
func (srv *Server) registerResumableLocked(s *Session) {
	tok := mintToken(srv.cfg.TokenSeed, s.id, 0)
	for nonce := uint64(1); ; nonce++ {
		if _, taken := srv.resumable[tok]; !taken {
			break
		}
		tok = mintToken(srv.cfg.TokenSeed, s.id, nonce)
	}
	s.token = tok
	srv.resumable[tok] = s
}

// resumeSink wraps a resumable session's transport sink. It records
// everything the worker emits (the checkpoint) and forwards to the
// currently attached inner sink; a forward failure detaches the sink and
// parks the checkpoint instead of poisoning the session — a dead client
// is a cut, not a decode error.
type resumeSink struct {
	s *Session

	mu    sync.Mutex
	inner Sink // currently attached transport sink; nil while parked
	bits  []uplink.BitDecision
	final bool
	res   *uplink.Result
	err   error
}

// EmitBits implements Sink on the session worker's hot path (a wblint
// hot-path root): record into the preallocated checkpoint, forward to
// the attached sink if any. Always returns nil — transport loss must
// not poison a resumable session.
func (rs *resumeSink) EmitBits(bits []uplink.BitDecision) error {
	rs.mu.Lock()
	rs.bits = append(rs.bits, bits...)
	inner := rs.inner
	rs.mu.Unlock()
	if inner == nil {
		return nil
	}
	if inner.EmitBits(bits) != nil {
		if rs.drop(inner) {
			rs.s.srv.parkDetached(rs.s)
		}
	}
	return nil
}

// EmitResult implements Sink: record the final outcome, forward it to
// the attached sink if any. The checkpoint stays replayable afterwards
// (sessionClosed parks it), so a client cut between the server writing
// the result and reading it can resume and re-receive it.
func (rs *resumeSink) EmitResult(res *uplink.Result, err error) {
	rs.mu.Lock()
	rs.final = true
	rs.res = res
	rs.err = err
	inner := rs.inner
	rs.mu.Unlock()
	if inner != nil {
		inner.EmitResult(res, err)
	}
}

// drop detaches owner if it is still the attached sink, reporting
// whether this call detached it.
func (rs *resumeSink) drop(owner Sink) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.inner != owner || owner == nil {
		return false
	}
	rs.inner = nil
	return true
}

// isFinal reports whether the final result has been recorded.
func (rs *resumeSink) isFinal() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.final
}

// detachFrom parks the session's checkpoint if sink is still the
// attached sink (the transport handler's EOF path). Idempotent against
// the worker-side detach in EmitBits.
func (s *Session) detachFrom(sink Sink) {
	if s.rs != nil && s.rs.drop(sink) {
		s.srv.parkDetached(s)
	}
}

// stolen reports whether a newer connection has resumed the session
// since the caller attached under gen.
func (s *Session) stolen(gen uint32) bool { return gen != s.gen.Load() }

// AttachInfo describes the checkpoint state a resuming client attaches
// to.
type AttachInfo struct {
	// Consumed is how many measurements the session has accepted; the
	// client skips that many from its replay buffer.
	Consumed int64
	// Final reports the result is already recorded: it is replayed
	// during Attach and the session needs no further input.
	Final bool
}

// Attach re-attaches a sink to a resumable session after ResumeSession:
// it replays the bits past haveBits (the client's count of received bit
// lines) and, if the result is already recorded, replays that too. The
// onAttach callback runs under the checkpoint lock before the replay —
// the TCP front end writes its ok line there, so the acknowledgment and
// the replayed lines cannot interleave with fresh worker output. A
// replay write failure is a cut, not an error: the checkpoint parks
// again and Attach returns cleanly for the next resume.
func (s *Session) Attach(sink Sink, haveBits int, onAttach func(AttachInfo)) (AttachInfo, error) {
	rs := s.rs
	if rs == nil {
		return AttachInfo{}, fmt.Errorf("serve: session is not resumable")
	}
	if sink == nil {
		return AttachInfo{}, fmt.Errorf("serve: nil sink")
	}
	rs.mu.Lock()
	info := AttachInfo{Consumed: s.consumed.Load(), Final: rs.final}
	if haveBits > len(rs.bits) {
		rs.inner = nil
		n := len(rs.bits)
		rs.mu.Unlock()
		s.srv.parkDetached(s)
		return info, fmt.Errorf("serve: resume claims %d bits received, only %d were emitted", haveBits, n)
	}
	if onAttach != nil {
		onAttach(info)
	}
	if haveBits < len(rs.bits) {
		missed := rs.bits[haveBits:]
		if sink.EmitBits(missed) != nil {
			rs.inner = nil
			rs.mu.Unlock()
			s.srv.parkDetached(s)
			return info, nil
		}
		s.srv.met.replayedBits.Add(int64(len(missed)))
	}
	if rs.final {
		sink.EmitResult(rs.res, rs.err)
		rs.inner = nil
		rs.mu.Unlock()
		s.srv.parkDetached(s)
		return info, nil
	}
	rs.inner = sink
	rs.mu.Unlock()
	// Between ResumeSession and here the worker may have failed a write
	// to the old dead sink and re-parked the checkpoint; now that a live
	// sink is attached, clear the park state so a sweep cannot evict a
	// session that is actively streaming.
	srv := s.srv
	srv.mu.Lock()
	if s.detached && srv.resumable[s.token] == s {
		s.detached = false
		s.parkedAt = time.Time{}
		srv.nParked--
	}
	srv.mu.Unlock()
	return info, nil
}

// ResumeSession re-claims a resumable session by token, installing c as
// the transport abort should force-close (nil for in-process callers).
// It bumps the producer generation and fences the previous producer out,
// so the Consumed() the subsequent Attach reports is exact. The caller
// owns re-attaching a sink via Attach.
func (srv *Server) ResumeSession(token string, c closer) (*Session, uint32, error) {
	srv.mu.Lock()
	if srv.state != stateRunning {
		srv.met.rejectedDraining.Add(1)
		srv.mu.Unlock()
		return nil, 0, ErrDraining
	}
	s, ok := srv.resumable[token]
	if !ok {
		srv.met.resumeUnknown.Add(1)
		srv.mu.Unlock()
		return nil, 0, ErrUnknownResume
	}
	if s.detached {
		s.detached = false
		s.parkedAt = time.Time{}
		srv.nParked--
	}
	srv.met.resumed.Add(1)
	srv.mu.Unlock()
	// Drain the previous producer before snapshotting the cursor. A cut
	// connection's FIN arrives behind every byte the wire delivered, so
	// waiting for the old handler's natural EOF exit makes Consumed()
	// count exactly the complete lines that made it across — a number
	// the chaos determinism contract depends on. Force-closing instead
	// would discard a scheduling-dependent amount of kernel-buffered
	// data. The bound only fires for a peer that vanished without FIN
	// (or a live connection being hijacked); past it the transport is
	// closed and the handler's exit awaited.
	if ch := s.producerExit(); ch != nil {
		timer := time.NewTimer(DefaultResumeDrainWait)
		select {
		case <-ch:
		case <-timer.C:
			if old := s.swapCloser(nil); old != nil {
				_ = old.Close()
			}
			<-ch
		}
		timer.Stop()
	}
	gen := s.gen.Add(1)
	// Steal the transport; the pmu round-trip guarantees any straggling
	// in-process push has completed (or will fail the generation check),
	// so the consumed count the caller reads next cannot move under a
	// stale producer.
	if old := s.swapCloser(c); old != nil {
		_ = old.Close()
	}
	s.pmu.Lock()
	_ = gen // fence only: producers serialize on pmu
	s.pmu.Unlock()
	return s, gen, nil
}

// parkDetached parks a session's checkpoint (transport gone), evicting
// the oldest checkpoints if the parked population overflows MaxParked.
func (srv *Server) parkDetached(s *Session) {
	srv.mu.Lock()
	srv.parkLocked(s)
	evicted := srv.evictOverflowLocked()
	srv.mu.Unlock()
	for _, e := range evicted {
		srv.evictSession(e, false)
	}
}

// parkLocked stamps the park state on a resumable session still present
// in the resume table. Idempotent; caller holds srv.mu.
func (srv *Server) parkLocked(s *Session) {
	if s.token == "" || srv.resumable[s.token] != s || s.detached {
		return
	}
	s.detached = true
	srv.parkSeq++
	s.parkOrd = srv.parkSeq
	if srv.cfg.Now != nil {
		s.parkedAt = srv.cfg.Now()
	}
	srv.nParked++
	srv.met.parkedTotal.Add(1)
}

// evictOverflowLocked removes oldest-parked checkpoints from the resume
// table until the parked population fits MaxParked, returning them for
// the caller to finish off outside srv.mu.
func (srv *Server) evictOverflowLocked() []*Session {
	if srv.nParked <= srv.cfg.maxParked() {
		return nil
	}
	evicted := make([]*Session, 0, srv.nParked-srv.cfg.maxParked())
	for srv.nParked > srv.cfg.maxParked() {
		var oldest *Session
		for _, s := range srv.resumable {
			if !s.detached {
				continue
			}
			if oldest == nil || s.parkOrd < oldest.parkOrd {
				oldest = s
			}
		}
		if oldest == nil {
			break
		}
		delete(srv.resumable, oldest.token)
		srv.nParked--
		evicted = append(evicted, oldest)
	}
	return evicted
}

// evictSession retires an evicted checkpoint: accounting, and — if the
// stream never finished — a forced end with the ErrCheckpointExpired
// verdict so its worker and slot ring are reclaimed.
func (srv *Server) evictSession(s *Session, byTTL bool) {
	if byTTL {
		srv.met.evictedTTL.Add(1)
	} else {
		srv.met.evictedCapacity.Add(1)
	}
	if s.rs.isFinal() {
		return
	}
	s.setErr(ErrCheckpointExpired)
	s.abort()
	s.Finish()
}

// SweepResume evicts parked checkpoints whose age at now meets or
// exceeds ResumeTTL, returning how many were evicted. The server never
// reads a clock itself: the daemon calls this on a ticker with time.Now,
// deterministic tests call it with fabricated times. Checkpoints parked
// under a nil Config.Now have no timestamp and are only ever evicted by
// capacity.
func (srv *Server) SweepResume(now time.Time) int {
	ttl := srv.cfg.resumeTTL()
	srv.mu.Lock()
	evicted := make([]*Session, 0, 8)
	for tok, s := range srv.resumable {
		if s.detached && !s.parkedAt.IsZero() && now.Sub(s.parkedAt) >= ttl {
			delete(srv.resumable, tok)
			srv.nParked--
			evicted = append(evicted, s)
		}
	}
	srv.mu.Unlock()
	for _, s := range evicted {
		srv.evictSession(s, true)
	}
	return len(evicted)
}

// ParkedCheckpoints returns the number of currently parked (detached)
// resumable checkpoints.
func (srv *Server) ParkedCheckpoints() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.nParked
}
