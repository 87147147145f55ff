package main

//wblint:file-ignore DT001 layer passes time each layer's public calls on the wall clock; benchmark output only
//wblint:file-ignore DT005 wall-clock durations flow into the printed per-layer metrics by design

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/serve"
	"repro/internal/uplink"
)

// The traced run's layer passes. Each one replays the workload's own
// measurements through one layer's public functions and times those
// calls from outside, so per-layer numbers need no instrumentation inside
// the program.

// layerMetrics fills every per-layer metric: from the traced phase's
// spans where the workload's own traffic exercised the layer, and from a
// layer pass over the workload's capture otherwise.
func layerMetrics(o options, w workload, rec *recorder, m metricSet, b *phase) error {
	c := w.layerCapture()
	cov := w.coverage()
	reps := o.sc.layerMeas/len(c.meas) + 1
	if reps < 3 {
		reps = 3
	}
	root := rec.begin("layers", spanRef{}, -1)
	defer root.end(nil)
	wirePass(c, reps, rec, root, m)
	if err := uplinkPass(c, reps, rec, root, m); err != nil {
		return err
	}
	if err := radioPass(c, o.sc.layerMeas, rec, root, m); err != nil {
		return err
	}
	if !cov.sessions {
		if err := sessionPass(c, reps, rec, root, m); err != nil {
			return err
		}
	}
	if !cov.tcp {
		tcp, err := tcpPass(c, reps, rec, root)
		if err != nil {
			return err
		}
		setTCP(m, tcp)
	} else {
		setTCP(m, b.tcp)
	}

	sums := rec.summarize()
	if cov.sessions {
		s := find(sums, "serve.session")
		m["serve.session.push_us_per_meas"] = s.Counters["push_ns"] / s.Counters["pushes"] / 1e3
	}
	// Simulator layers: the workload's own trials, or the simulations
	// behind its set-up captures.
	unit, wall, workers := "capture", find(sums, "setup.captures").TotalMS, float64(o.sc.workers)
	if cov.trials {
		unit, wall = "sim.trial", b.wall*1e3
	}
	run := find(sums, "sim.run")
	m["core.build_ms_per_trial"] = find(sums, "core.build").meanMS()
	m["sim.run_ms_per_trial"] = run.meanMS()
	m["sim.events_per_trial"] = run.Counters["events"] / float64(run.Count)
	m["wifi.frames_delivered_per_trial"] = run.Counters["delivered"] / float64(run.Count)
	m["uplink.decode_ms_per_trial"] = find(sums, "uplink.decode").meanMS()
	m["parallel.busy_share"] = find(sums, unit).TotalMS / (workers * wall)

	m["client.cpu_us_per_meas"] = b.procCPU / float64(b.meas) * 1e6
	m["server.cpu_us_per_meas"] = b.procCPU / float64(b.meas) * 1e6
	if w.daemon() != nil {
		m["server.cpu_us_per_meas"] = b.daemonCPU / float64(b.meas) * 1e6
	}
	m["gc.cycles_per_1k_meas"] = float64(b.gcCycles) / float64(b.meas) * 1e3
	late := 0
	for _, l := range b.lateMS {
		if l > 1 {
			late++
		}
	}
	m["loadgen.late_share"] = float64(late) / float64(len(b.lateMS))
	m["loadgen.late_p99_ms"] = percentile(b.lateMS, 99)
	return nil
}

func setTCP(m metricSet, t tcpTotals) {
	n := float64(t.sessions)
	m["serve.tcp.write_blocked_ms_per_session"] = float64(t.blockedNS) / 1e6 / n
	m["serve.tcp.bytes_sent_per_session"] = float64(t.sent) / n
	m["serve.tcp.bytes_recv_per_session"] = float64(t.recv) / n
}

// wirePass encodes every measurement with serve.AppendMeasurement, then
// parses every line back with serve.ParseMeasurement.
func wirePass(c *capture, reps int, rec *recorder, parent spanRef, m metricSet) {
	var line []byte
	var all []byte
	var offs []int
	var encode, parse time.Duration
	n := 0
	scratch := shapedMeasurement(c.params.Antennas, c.params.Subchannels)
	for r := 0; r < reps; r++ {
		all, offs = all[:0], offs[:0]
		t0 := time.Now()
		for _, ms := range c.meas {
			line = serve.AppendMeasurement(line[:0], ms)
			offs = append(offs, len(all))
			all = append(all, line...)
		}
		t1 := time.Now()
		offs = append(offs, len(all))
		for i := 0; i+1 < len(offs); i++ {
			// Parse errors cannot happen on lines the codec just wrote;
			// the end-to-end check catches any round-trip drift.
			_ = serve.ParseMeasurement(all[offs[i]:offs[i+1]], &scratch)
		}
		t2 := time.Now()
		rec.interval("serve.wire.encode", parent, r, t0, t1, nil)
		rec.interval("serve.wire.parse", parent, r, t1, t2, nil)
		encode += t1.Sub(t0)
		parse += t2.Sub(t1)
		n += len(c.meas)
	}
	m["serve.wire.encode_us_per_meas"] = float64(encode.Nanoseconds()) / 1e3 / float64(n)
	m["serve.wire.parse_us_per_meas"] = float64(parse.Nanoseconds()) / 1e3 / float64(n)
	// One newline terminates each line on the wire.
	m["serve.wire.bytes_per_meas"] = float64(len(all)+len(c.meas)) / float64(len(c.meas))
}

func shapedMeasurement(ants, subs int) csi.Measurement {
	m := csi.Measurement{RSSI: make([]float64, ants), CSI: make([][]float64, ants)}
	for a := range m.CSI {
		m.CSI[a] = make([]float64, subs)
	}
	return m
}

// uplinkPass streams the capture through a fresh uplink.StreamDecoder
// reps times, timing every Push: the pushes that do not close the frame,
// the closing one, and the allocations of a whole stream. It then
// conditions every in-frame channel with dsp.ConditionTwoPassInto over
// the same frame; the closing push minus conditioning is the self time
// of selection, MRC, hysteresis and the vote.
func uplinkPass(c *capture, reps int, rec *recorder, parent spanRef, m metricSet) error {
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(1 / c.params.BitRate))
	if err != nil {
		return err
	}
	var pushNS int64
	pushes := 0
	closeMS := make([]float64, 0, reps)
	allocs := make([]float64, 0, reps)
	var ms0, ms1 runtime.MemStats
	for r := 0; r < reps; r++ {
		sd, err := dec.NewStream(c.params.Start, c.params.PayloadLen, uplink.StreamCSI)
		if err != nil {
			return err
		}
		sp := rec.begin("uplink.stream", parent, r)
		runtime.ReadMemStats(&ms0)
		for i, ms := range c.meas {
			t0 := time.Now()
			_, err := sd.Push(ms)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("uplink pass: %w", err)
			}
			if i == c.closeIdx {
				closeMS = append(closeMS, float64(d.Nanoseconds())/1e6)
				rec.interval("uplink.frame_close", sp, r, t0, t0.Add(d), nil)
			} else {
				pushNS += d.Nanoseconds()
				pushes++
			}
		}
		if _, err := sd.Flush(); err != nil {
			return fmt.Errorf("uplink pass: %w", err)
		}
		runtime.ReadMemStats(&ms1)
		sp.end(nil)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
	}
	cond, err := conditionPass(c, reps, rec, parent)
	if err != nil {
		return err
	}
	m["uplink.push_us_per_meas"] = float64(pushNS) / 1e3 / float64(pushes)
	m["uplink.frame_close_ms"] = median(closeMS)
	m["uplink.allocs_per_frame"] = median(allocs)
	m["dsp.condition_ms_per_frame"] = cond
	m["uplink.select_mrc_ms_per_frame"] = median(closeMS) - cond
	return nil
}

// conditionPass runs dsp.ConditionTwoPassInto on every in-frame channel
// with the decoder's window, reps times, and returns the median time per
// frame in ms. The frame bounds and the window mirror the uplink
// decoder's: samples with start <= t < end, and a window of
// max(ConditionWindow, 24 bit durations) converted to samples at the
// frame's mean spacing.
func conditionPass(c *capture, reps int, rec *recorder, parent spanRef) (float64, error) {
	cfg := uplink.DefaultConfig(1 / c.params.BitRate)
	end := c.params.Start + float64(c.params.PayloadLen+26)*cfg.BitDuration
	var ts []float64
	var frame []csi.Measurement
	for _, ms := range c.meas {
		if ms.Timestamp >= c.params.Start && ms.Timestamp < end {
			ts = append(ts, ms.Timestamp)
			frame = append(frame, ms)
		}
	}
	if len(frame) < 2 {
		return 0, fmt.Errorf("condition pass: only %d in-frame measurements", len(frame))
	}
	windowS := cfg.ConditionWindow
	if min := 24 * cfg.BitDuration; windowS < min {
		windowS = min
	}
	spacing := (ts[len(ts)-1] - ts[0]) / float64(len(ts)-1)
	window := int(windowS / spacing)
	if window < 2 {
		window = 2
	}
	raw := make([]float64, len(frame))
	out := make([]float64, len(frame))
	perFrame := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		var total time.Duration
		rs := time.Now()
		for a := 0; a < c.params.Antennas; a++ {
			for k := 0; k < c.params.Subchannels; k++ {
				for i, ms := range frame {
					raw[i] = ms.CSI[a][k]
				}
				t0 := time.Now()
				dsp.ConditionTwoPassInto(out, raw, window)
				total += time.Since(t0)
			}
		}
		perFrame = append(perFrame, float64(total.Nanoseconds())/1e6)
		// One span per frame carries the summed conditioning time; the
		// per-channel calls are too many to record one by one.
		rec.interval("dsp.condition", parent, r, rs, time.Now(), map[string]float64{"condition_ms": perFrame[r]})
	}
	return median(perFrame), nil
}

// radioPass rebuilds the capture's system from its config and replays
// radio.MultiChannel.Observe and csi.Card.Measure at the capture's
// measurement timestamps, with the tag state its modulator had then.
func radioPass(c *capture, maxMeas int, rec *recorder, parent spanRef, m metricSet) error {
	sys, err := core.NewSystem(c.cfg)
	if err != nil {
		return err
	}
	meas := c.meas
	if len(meas) > maxMeas {
		meas = meas[:maxMeas]
	}
	states := []bool{false}
	var observe, measure time.Duration
	sp := rec.begin("radio.replay", parent, -1)
	for _, ms := range meas {
		states[0] = c.mod.StateAt(ms.Timestamp)
		t0 := time.Now()
		h, err := sys.Channel.Observe(ms.Timestamp, states)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("radio pass: %w", err)
		}
		_ = sys.Card.Measure(ms.Timestamp, h)
		measure += time.Since(t1)
		observe += t1.Sub(t0)
	}
	sp.end(map[string]float64{"observe_ns": float64(observe), "measure_ns": float64(measure)})
	m["radio.observe_us_per_meas"] = float64(observe.Nanoseconds()) / 1e3 / float64(len(meas))
	m["csi.measure_us_per_meas"] = float64(measure.Nanoseconds()) / 1e3 / float64(len(meas))
	return nil
}

// sessionPass opens reps sessions on an in-process serve.Server, timing
// every Session.Push (including any wait for a free slot), and checks
// each result against the capture's reference.
func sessionPass(c *capture, reps int, rec *recorder, parent spanRef, m metricSet) error {
	srv := serve.NewServer(serve.Config{})
	defer func() { _ = srv.Drain() }()
	var pushNS int64
	pushes := 0
	for r := 0; r < reps; r++ {
		out, err := pushSession(srv, c, true)
		if err != nil {
			return fmt.Errorf("session pass: %w", err)
		}
		if err := c.ref.check(out.bits, bitString(out.res.Payload), out.res.PreambleCorrelation, out.res.MeasurementsPerBit); err != nil {
			return fmt.Errorf("session pass: %w", err)
		}
		rec.interval("serve.session.pass", parent, r, out.start, out.done, map[string]float64{
			"push_ns": float64(out.pushNS), "pushes": float64(len(c.meas)),
		})
		pushNS += out.pushNS
		pushes += len(c.meas)
	}
	m["serve.session.push_us_per_meas"] = float64(pushNS) / 1e3 / float64(pushes)
	setSessionMetrics(m, statsReport(srv.Stats()))
	return nil
}

// setSessionMetrics copies a server's session counters into m.
func setSessionMetrics(m metricSet, r serverReport) {
	m["serve.session.accepted"] = r.accepted
	m["serve.session.rejected"] = r.rejected
	m["serve.session.completed"] = r.completed
	m["serve.session.queue_highwater"] = r.queueHWM
}

// tcpPass replays the capture reps times over loopback TCP to an
// in-process server through serve.Replay and the metered connection.
func tcpPass(c *capture, reps int, rec *recorder, parent spanRef) (tcpTotals, error) {
	var tot tcpTotals
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return tot, err
	}
	srv := serve.NewServer(serve.Config{})
	served := make(chan error, 1)
	go func() { served <- srv.ServeTCP(l) }()
	defer func() {
		_ = l.Close()
		<-served
		_ = srv.Drain()
	}()
	for r := 0; r < reps; r++ {
		out := replaySession(l.Addr().String(), c, r, rec, parent)
		if out.err != nil {
			return tot, fmt.Errorf("tcp pass: %w", out.err)
		}
		tot.merge(out.tcp)
	}
	return tot, nil
}
