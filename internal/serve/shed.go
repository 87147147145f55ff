package serve

import (
	"time"
)

// Adaptive load shedding (DESIGN.md §13). Admission is no longer the
// binary "ErrOverloaded at MaxSessions": the server computes a pressure
// signal in [0,1] blending active-session load, aggregate slot-ring
// occupancy, and a decaying strain term fed by aborts, poisonings, and
// stall verdicts. Under pressure the policy degrades in order: a
// newcomer with strictly higher priority preempts the lowest-priority
// active session (ErrShed on the victim — its bits so far were already
// delivered, and a resumable victim keeps its checkpoint); everyone
// else is rejected with a RetryError carrying a pressure-scaled
// retry-after hint, machine-readable on the wire as
// "reject retry-after=<seconds> ...". TryPush's ErrBufferFull carries
// the same hint. Shed decisions are visible through serve.shed.* and
// the serve.pressure gauge.

// RetryError wraps a load-shedding rejection (ErrOverloaded,
// ErrBufferFull) with a machine-readable backoff hint. errors.Is sees
// through it to the underlying rejection.
type RetryError struct {
	Err   error
	After time.Duration
}

// Error formats without fmt so no operand is boxed: the method is
// statically reachable from the serving hot path via Sink.EmitResult.
func (e *RetryError) Error() string {
	return e.Err.Error() + " (retry after " + e.After.String() + ")"
}

// Unwrap exposes the underlying rejection to errors.Is/As.
func (e *RetryError) Unwrap() error { return e.Err }

// retryErr wraps base with a hint that grows with pressure: base/2 when
// idle, up to 2x base at full pressure — monotone, so a client backing
// off by the hint naturally spreads a thundering herd.
func (srv *Server) retryErr(base error, pressure float64) error {
	if pressure < 0 {
		pressure = 0
	}
	if pressure > 1 {
		pressure = 1
	}
	after := time.Duration((0.5 + 1.5*pressure) * float64(DefaultRetryAfterBase))
	srv.met.retryHints.Add(1)
	return &RetryError{Err: base, After: after}
}

// Pressure returns the current load-shedding pressure in [0,1].
func (srv *Server) Pressure() float64 {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.pressureLocked()
}

// pressureLocked blends the three load signals. Weights: active
// sessions dominate (0.6) because they bound everything else; aggregate
// ring occupancy (0.3) says how far behind the workers are; strain
// (0.1) is the decaying abort/poison/stall rate, normalized so eight
// recent failures saturate it. Caller holds srv.mu.
func (srv *Server) pressureLocked() float64 {
	load := float64(len(srv.sessions)) / float64(srv.cfg.maxSessions())
	occ := 0.0
	if n := len(srv.sessions); n > 0 {
		occ = float64(srv.met.queued.Load()) / float64(n*srv.cfg.sessionBuffer())
	}
	strain := srv.met.strain() / 8
	if strain > 1 {
		strain = 1
	}
	p := 0.6*load + 0.3*occ + 0.1*strain
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}
