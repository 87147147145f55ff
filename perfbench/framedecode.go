package main

//wblint:file-ignore DT001 closed-loop sessions run against a wall-clock deadline and are timed for close_to_bit
//wblint:file-ignore DT005 session timings flow into the benchmark's printed metrics by design

import (
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// frameDecode: closed loop in process, no wire. One producer opens a
// serve.Session, pushes every measurement, finishes it and waits
// for the benchmark sink. Each session is one long frame (1000 payload
// bits at 100 bps) fed from 50 ms before the frame through the
// measurement that closes it, so every measurement is stored and decoded:
// conditioning and the decoder's arena dominate.
type frameDecode struct {
	o    options
	caps []*capture
	srv  *serve.Server
	next atomic.Int64
}

func (w *frameDecode) setup(rec *recorder) error {
	caps, err := generate(w.o.seed, w.o.sc.captures, w.o.sc.workers, captureSpec{
		payloadLen: w.o.sc.decodePayload,
		bitRate:    tagBitRate,
		distanceCM: 5,
		trim:       true,
	}, rec)
	if err != nil {
		return err
	}
	w.caps = caps
	w.srv = serve.NewServer(serve.Config{})
	return nil
}

func (w *frameDecode) measure(d time.Duration, rec *recorder, ph *phase) error {
	closedLoop(closedClients, d, ph, &w.next, func(i int, lp *phase) time.Time {
		c := w.caps[i%len(w.caps)]
		out, err := pushSession(w.srv, c, rec != nil)
		if err == nil {
			if cerr := c.ref.check(out.bits, bitString(out.res.Payload), out.res.PreambleCorrelation, out.res.MeasurementsPerBit); cerr != nil {
				err = &errMismatch{cerr}
			}
		}
		classify(&lp.t, err, false, i)
		if err == nil {
			lp.meas += int64(len(c.meas))
			lp.units++
			// All of a session's measurements are available when it
			// opens; the first bits leave the sink once the closing push
			// has been decoded.
			lp.latMS = append(lp.latMS, msBetween(out.start, out.firstBit))
			rec.interval("serve.session", spanRef{}, i, out.start, out.done, map[string]float64{
				"push_ns": float64(out.pushNS), "pushes": float64(len(c.meas)),
			})
		}
		if out.done.IsZero() {
			return time.Now()
		}
		return out.done
	})
	return nil
}

func (w *frameDecode) daemon() *daemon { return nil }

func (w *frameDecode) teardown() (serverReport, error) {
	if w.srv == nil {
		return serverReport{}, nil
	}
	srv := w.srv
	w.srv = nil
	err := srv.Drain()
	return statsReport(srv.Stats()), err
}

// statsReport projects an in-process server's counters.
func statsReport(st serve.Stats) serverReport {
	return serverReport{
		have:      true,
		accepted:  float64(st.Accepted),
		rejected:  float64(st.RejectedOverload + st.RejectedDraining + st.RejectedBad),
		completed: float64(st.Completed),
		queueHWM:  float64(st.QueueHighWater),
	}
}

func (w *frameDecode) layerCapture() *capture { return w.caps[0] }

func (w *frameDecode) coverage() coverage { return coverage{sessions: true} }
