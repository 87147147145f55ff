package main

//wblint:file-ignore DT001 sessions are timed on the wall clock for the latency and per-call metrics

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/uplink"
)

// One session, in process or over TCP, as every workload and layer pass
// drives it.

// collectSink is the benchmark's serve.Sink: it keeps a copy of the bits
// and the time the first ones arrived.
type collectSink struct {
	mu       sync.Mutex
	firstBit time.Time
	bits     []uplink.BitDecision
	res      *uplink.Result
	err      error
}

func (s *collectSink) EmitBits(bits []uplink.BitDecision) error {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.firstBit.IsZero() {
		s.firstBit = now
	}
	s.bits = append(s.bits, bits...)
	return nil
}

func (s *collectSink) EmitResult(res *uplink.Result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res, s.err = res, err
}

// pushOutcome is one in-process session's result.
type pushOutcome struct {
	bits        []uplink.BitDecision
	res         *uplink.Result
	start, done time.Time
	firstBit    time.Time
	pushNS      int64 // summed Push durations, when timed
}

// errTimedOut marks a session that did not finish within sessionTimeout.
var errTimedOut = errors.New("session timed out")

// pushSession opens a session on srv, pushes every measurement of c,
// finishes it and waits for its result. With timed set, each Push is
// timed (the wait for a free slot included).
func pushSession(srv *serve.Server, c *capture, timed bool) (pushOutcome, error) {
	var out pushOutcome
	sink := &collectSink{}
	out.start = time.Now()
	sess, err := srv.Open(c.params, sink)
	if err != nil {
		return out, err
	}
	for _, ms := range c.meas {
		if timed {
			t0 := time.Now()
			err = sess.Push(ms)
			out.pushNS += time.Since(t0).Nanoseconds()
		} else {
			err = sess.Push(ms)
		}
		if err != nil {
			break
		}
	}
	sess.Finish()
	select {
	case <-sess.Done():
	case <-time.After(sessionTimeout):
		return out, errTimedOut
	}
	out.done = time.Now()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if err == nil {
		err = sink.err
	}
	if err != nil {
		return out, fmt.Errorf("session: %w", err)
	}
	out.bits, out.res, out.firstBit = sink.bits, sink.res, sink.firstBit
	return out, nil
}

// replayOutcome is one TCP session's result through serve.Replay.
type replayOutcome struct {
	err         error
	rejected    bool
	start, done time.Time
	firstReply  time.Time
	tcp         tcpTotals
}

// replaySession replays c to the server at addr through serve.Replay on a
// metered connection and checks the served bits against the reference.
// A mismatch comes back as an errMismatch.
func replaySession(addr string, c *capture, unit int, rec *recorder, parent spanRef) replayOutcome {
	var out replayOutcome
	var conn *meteredConn
	dial := func() (net.Conn, error) {
		mc, err := dialMetered(addr)
		if err != nil {
			return nil, err
		}
		if err := mc.Conn.SetDeadline(time.Now().Add(sessionTimeout)); err != nil {
			_ = mc.Close()
			return nil, err
		}
		conn = mc
		return mc, nil
	}
	out.start = time.Now()
	st, err := serve.Replay(dial, serve.ReplayOptions{
		Params:       c.params,
		Measurements: c.meas,
		MaxAttempts:  1,
	})
	out.done = time.Now()
	if conn != nil {
		out.firstReply = conn.firstReplyAt()
		out.tcp.add(conn)
		rec.interval("serve.replay", parent, unit, out.start, out.done, map[string]float64{
			"bytes_sent": float64(conn.sent.Load()), "bytes_recv": float64(conn.recv.Load()),
			"write_blocked_ns": float64(conn.blockedNS.Load()),
		})
	}
	out.rejected = st.Rejected
	switch {
	case err != nil && errors.Is(err, os.ErrDeadlineExceeded):
		out.err = fmt.Errorf("%w: %v", errTimedOut, err)
	case err != nil:
		out.err = err
	default:
		if cerr := c.ref.check(st.Bits, st.Done.Bits, st.Done.Corr, st.Done.MPB); cerr != nil {
			out.err = &errMismatch{cerr}
		}
	}
	return out
}

// errMismatch is a served result that differs from its reference.
type errMismatch struct{ err error }

func (e *errMismatch) Error() string { return "mismatch: " + e.err.Error() }

// classify counts one attempt's outcome into t.
func classify(t *tally, err error, rejected bool, unit int) {
	t.attempted++
	var mm *errMismatch
	switch {
	case err == nil:
		t.completed++
	case errors.As(err, &mm):
		t.mismatch("session %d: %v", unit, mm.err)
	case rejected || errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrDraining):
		t.rejected++
	case errors.Is(err, errTimedOut):
		t.timedOut++
	default:
		t.errored++
	}
}
