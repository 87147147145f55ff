package main

//wblint:file-ignore DT001 the open-loop sender paces measurements by the wall clock and times latency from their due times
//wblint:file-ignore DT005 send times and latencies flow into the benchmark's printed metrics by design

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/uplink"
)

// pacedLive: open loop over loopback TCP to a wbserved child. Each of
// the workers streams sends short sessions (40 payload bits at 100 bps,
// ~710 measurements) back to back on a fixed schedule at pacedSpeedup
// times capture speed, whether or not earlier sessions have answered.
// Each measurement is encoded when it is sent. close_to_bit is timed from
// when the frame-closing measurement was due, so a sender that falls
// behind adds its lateness to the latency instead of hiding it.
type pacedLive struct {
	o    options
	caps []*capture
	next atomic.Int64
	served
}

func (w *pacedLive) setup(rec *recorder) error {
	caps, err := generate(w.o.seed, w.o.sc.pacedCaptures, w.o.sc.workers, captureSpec{
		payloadLen: w.o.sc.pacedPayload,
		bitRate:    tagBitRate,
		distanceCM: 5,
		trim:       true,
	}, rec)
	if err != nil {
		return err
	}
	w.caps = caps
	return w.start(w.o, rec)
}

// sendTick is the paced sender's wake-up interval. Measurements fall due
// every ~0.1 ms at 10× capture speed; waking for each would make timer
// wake-ups, not the server, the dominant and noisiest CPU cost.
const sendTick = time.Millisecond

// offset is how long after its session starts measurement j is due.
func (w *pacedLive) offset(c *capture, j int) time.Duration {
	s := (c.meas[j].Timestamp - c.meas[0].Timestamp) / w.o.sc.pacedSpeedup
	return time.Duration(s * float64(time.Second))
}

func (w *pacedLive) measure(d time.Duration, rec *recorder, ph *phase) error {
	t0 := time.Now()
	deadline := t0.Add(d)
	streams := w.o.sc.workers
	var mu sync.Mutex // guards ph for senders and readers
	var senders, readers sync.WaitGroup
	for s := 0; s < streams; s++ {
		// Stagger the streams so their frames do not close together.
		due := t0.Add(w.offset(w.caps[0], len(w.caps[0].meas)-1) * time.Duration(s) / time.Duration(streams))
		senders.Add(1)
		go func() {
			defer senders.Done()
			for due.Before(deadline) {
				i := int(w.next.Add(1) - 1)
				c := w.caps[i%len(w.caps)]
				w.session(c, i, due, rec, ph, &mu, &readers)
				due = due.Add(w.offset(c, len(c.meas)-1))
			}
		}()
	}
	senders.Wait()
	readers.Wait()
	return nil
}

// session sends one capture on its schedule starting at start, leaving a
// reader goroutine (counted in readers) to collect the answer.
func (w *pacedLive) session(c *capture, i int, start time.Time, rec *recorder, ph *phase, mu *sync.Mutex, readers *sync.WaitGroup) {
	conn, err := dialMetered(w.d.addr)
	if err == nil {
		err = conn.Conn.SetDeadline(time.Now().Add(sessionTimeout))
		if err != nil {
			_ = conn.Close()
		}
	}
	if err != nil {
		mu.Lock()
		classify(&ph.t, err, false, i)
		mu.Unlock()
		return
	}
	closeDue := start.Add(w.offset(c, c.closeIdx))
	readers.Add(1)
	go func() {
		defer readers.Done()
		w.collect(conn, c, i, start, closeDue, rec, ph, mu)
	}()
	buf := serve.AppendHello(nil, c.params)
	buf = append(buf, '\n')
	if _, err := conn.Write(buf); err != nil {
		return // the reader reports the failed session
	}
	// late records, per wake-up, how long after its planned time the
	// sender got to run: its lag behind its own schedule.
	var late []float64
	planned := start
	for j := 0; j < len(c.meas); {
		now := time.Now()
		late = append(late, msBetween(planned, now))
		buf = buf[:0]
		for ; j < len(c.meas); j++ {
			if start.Add(w.offset(c, j)).After(now) {
				break
			}
			buf = serve.AppendMeasurement(buf, c.meas[j])
			buf = append(buf, '\n')
		}
		if len(buf) > 0 {
			if _, err := conn.Write(buf); err != nil {
				break
			}
		}
		if j < len(c.meas) {
			// Wake at most once per sendTick, sending whatever fell due
			// meanwhile, except that the frame-closing measurement goes
			// out on time.
			wake := start.Add(w.offset(c, j))
			if tick := now.Add(sendTick); wake.Before(tick) {
				wake = tick
			}
			if wake.After(closeDue) {
				wake = closeDue
			}
			planned = wake
			time.Sleep(time.Until(wake))
		}
	}
	// A failed write shows in the reader's outcome.
	_, _ = conn.Write([]byte("flush\n"))
	mu.Lock()
	ph.lateMS = append(ph.lateMS, late...)
	mu.Unlock()
}

// collect reads one session's responses, checks them against the
// reference and records the outcome.
func (w *pacedLive) collect(conn *meteredConn, c *capture, i int, start, closeDue time.Time, rec *recorder, ph *phase, mu *sync.Mutex) {
	var bits []uplink.BitDecision
	var firstBit time.Time
	rejected := false
	err := func() error {
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					return fmt.Errorf("%w: %v", errTimedOut, err)
				}
				return fmt.Errorf("reading responses: %w", err)
			}
			r, err := serve.ParseResponse(line[:len(line)-1])
			if err != nil {
				return err
			}
			switch r.Kind {
			case serve.RespOK:
			case serve.RespReject:
				rejected = true
				return fmt.Errorf("rejected: %s", r.Reason)
			case serve.RespBit:
				if firstBit.IsZero() {
					firstBit = time.Now()
				}
				bits = append(bits, r.Bit)
			case serve.RespDone:
				if cerr := c.ref.check(bits, r.Bits, r.Corr, r.MPB); cerr != nil {
					return &errMismatch{cerr}
				}
				return nil
			default:
				return fmt.Errorf("session failed: %s", r.Reason)
			}
		}
	}()
	_ = conn.Close()
	end := time.Now()
	rec.interval("loadgen.session", spanRef{}, i, start, end, map[string]float64{
		"bytes_sent": float64(conn.sent.Load()), "bytes_recv": float64(conn.recv.Load()),
		"write_blocked_ns": float64(conn.blockedNS.Load()),
	})
	mu.Lock()
	defer mu.Unlock()
	classify(&ph.t, err, rejected, i)
	ph.tcp.add(conn)
	if err == nil {
		ph.meas += int64(len(c.meas))
		ph.units++
		ph.latMS = append(ph.latMS, msBetween(closeDue, firstBit))
	}
}

func (w *pacedLive) layerCapture() *capture { return w.caps[0] }

func (w *pacedLive) coverage() coverage { return coverage{tcp: true} }
