package main

//wblint:file-ignore DT001 closed-loop sessions run against a wall-clock deadline and are timed for close_to_bit
//wblint:file-ignore DT005 session timings flow into the benchmark's printed metrics by design

import (
	"sync"
	"sync/atomic"
	"time"
)

// wireReplay: closed loop over loopback TCP to a wbserved child. One
// client replays whole captures back to back through serve.Replay, the
// repo's own client, on a fresh connection per session. Each capture is
// 10 s of 1000 pkt/s traffic holding a 100-bit frame at 1.0 s, so ~89% of
// the measurements are validated and dropped: the wire codec and the
// transport dominate.
type wireReplay struct {
	o    options
	caps []*capture
	next atomic.Int64
	served
}

func (w *wireReplay) spec() captureSpec {
	return captureSpec{
		payloadLen: w.o.sc.wirePayload,
		bitRate:    tagBitRate,
		distanceCM: 5,
		untilS:     w.o.sc.wireCaptureS,
	}
}

func (w *wireReplay) setup(rec *recorder) error {
	caps, err := generate(w.o.seed, w.o.sc.captures, w.o.sc.workers, w.spec(), rec)
	if err != nil {
		return err
	}
	w.caps = caps
	return w.start(w.o, rec)
}

func (w *wireReplay) measure(d time.Duration, rec *recorder, ph *phase) error {
	closedLoop(closedClients, d, ph, &w.next, func(i int, lp *phase) time.Time {
		c := w.caps[i%len(w.caps)]
		out := replaySession(w.d.addr, c, i, rec, spanRef{})
		classify(&lp.t, out.err, out.rejected, i)
		lp.tcp.merge(out.tcp)
		if out.err == nil {
			lp.meas += int64(len(c.meas))
			lp.units++
			// Every measurement of a replayed capture is available when
			// the session starts, the frame-closing one included.
			lp.latMS = append(lp.latMS, msBetween(out.start, out.firstReply))
		}
		return out.done
	})
	return nil
}

// served is the daemon half of the two TCP workloads.
type served struct{ d *daemon }

// start launches the daemon under a "setup.daemon" span.
func (s *served) start(o options, rec *recorder) error {
	sp := rec.begin("setup.daemon", spanRef{}, -1)
	defer sp.end(nil)
	var err error
	s.d, err = startDaemon(o.wbserved, o.outDir)
	return err
}

func (s *served) daemon() *daemon { return s.d }

func (s *served) teardown() (serverReport, error) {
	if s.d == nil {
		return serverReport{}, nil
	}
	d := s.d
	s.d = nil
	rep, err := d.stop()
	if err != nil {
		return serverReport{}, err
	}
	return rep.serverReport(), nil
}

func (w *wireReplay) layerCapture() *capture { return w.caps[0] }

func (w *wireReplay) coverage() coverage { return coverage{tcp: true} }

// serverReport projects a daemon's -metrics snapshot onto the session
// counters.
func (rep daemonReport) serverReport() serverReport {
	s := rep.metrics
	r := serverReport{
		have:     true,
		accepted: counterValue(s, "serve.sessions.accepted"),
		rejected: counterValue(s, "serve.sessions.rejected_overload") +
			counterValue(s, "serve.sessions.rejected_draining") +
			counterValue(s, "serve.sessions.rejected_bad"),
		completed: counterValue(s, "serve.sessions.completed"),
	}
	for _, g := range s.Gauges {
		if g.Name == "serve.queue.highwater" {
			r.queueHWM = g.Value
		}
	}
	return r
}

// closedClients is how many closed-loop clients wire-replay and
// frame-decode run: one, so that the client and the server fill two cores
// between them and nothing else runs while the client times the reference
// kernel.
const closedClients = 1

// closedLoop runs workers loops that each start their next session as
// soon as the previous one ends, until d has passed; sessions started
// before the deadline run to completion. session runs one session (with
// a global index drawn from next) into the worker's partial phase and
// returns when it ended. The gap between one session's end and the next
// one's start is the generator's lateness. Each worker samples the
// reference kernel before each session; with one worker nothing else of
// the benchmark or the daemon runs meanwhile.
func closedLoop(workers int, d time.Duration, ph *phase, next *atomic.Int64, session func(i int, lp *phase) time.Time) {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	probes := make([]*speedProbe, workers)
	for k := range probes {
		probes[k] = newSpeedProbe()
		wg.Add(1)
		go func(probe *speedProbe) {
			defer wg.Done()
			var lp phase
			last := time.Now()
			for {
				start := time.Now()
				if !start.Before(deadline) {
					break
				}
				lp.lateMS = append(lp.lateMS, msBetween(last, start))
				probe.sample()
				last = session(int(next.Add(1)-1), &lp)
			}
			mu.Lock()
			ph.merge(&lp)
			mu.Unlock()
		}(probes[k])
	}
	wg.Wait()
	ph.addRef(workers, probes...)
}

// msBetween is b - a in milliseconds.
func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
