package main

//wblint:file-ignore DT001 the runner times set-up and load phases on the wall clock; these are the benchmark's outputs
//wblint:file-ignore DT005 wall-clock durations flow into the printed metrics by design; the benchmark output is not a golden

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// options configures one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	wbserved string
	outDir   string
	sc       scale
	log      io.Writer
}

// scale sizes the workloads. defaultScale is the benchmark; tests shrink
// it for seconds-long smoke runs.
type scale struct {
	workers       int     // engine width, paced-live streams: GOMAXPROCS
	setups        int     // set-ups per end-to-end run; setup_s is their median
	warmupS       float64 // untimed load before each measured run
	captures      int     // distinct captures for wire-replay and frame-decode
	pacedCaptures int     // distinct captures for paced-live
	wireCaptureS  float64 // wire-replay capture length
	wirePayload   int     // wire-replay payload bits
	decodePayload int     // frame-decode payload bits
	pacedPayload  int     // paced-live payload bits
	pacedSpeedup  float64 // paced-live send speed over capture speed
	trialPayload  int     // sim-trials payload bits
	trialPPB      float64 // sim-trials helper packets per tag bit
	layerMeas     int     // measurements each layer pass covers at least
}

func defaultScale() scale {
	n := runtime.GOMAXPROCS(0)
	return scale{
		workers:       n,
		setups:        3,
		warmupS:       1,
		captures:      6,
		pacedCaptures: 16,
		wireCaptureS:  10,
		wirePayload:   100,
		decodePayload: 1000,
		pacedPayload:  40,
		pacedSpeedup:  10,
		trialPayload:  90,
		trialPPB:      30,
		layerMeas:     20000,
	}
}

// tagBitRate is the uplink bit rate of every serving workload's capture.
const tagBitRate = 100

// sessionTimeout bounds one session or trial; past it the attempt counts
// as timed out.
const sessionTimeout = 60 * time.Second

// phase is the outcome of driving load for a while.
type phase struct {
	wall      float64   // seconds from start to the last completion, less refWallS
	meas      int64     // measurements served (or simulated and decoded)
	units     int       // sessions or trials completed
	procCPU   float64   // this process's CPU seconds, less the reference kernel's
	daemonCPU float64   // the daemon's CPU seconds (0 in process)
	refMS     []float64 // reference kernel durations
	refWallS  float64   // wall seconds the workers spent in the kernel, per worker
	latMS     []float64
	lateMS    []float64
	rssPeaks  []float64 // serving process, MB, one per rssWindow
	gcCycles  uint32
	t         tally
	tcp       tcpTotals
}

// merge folds a worker's partial phase into p (wall and CPU excluded).
func (p *phase) merge(o *phase) {
	p.meas += o.meas
	p.units += o.units
	p.latMS = append(p.latMS, o.latMS...)
	p.lateMS = append(p.lateMS, o.lateMS...)
	p.refMS = append(p.refMS, o.refMS...)
	p.t.add(o.t)
	p.tcp.merge(o.tcp)
}

// cpuPerMeas is client plus server CPU per measurement, in reference µs.
func (p *phase) cpuPerMeas() float64 {
	return (p.procCPU + p.daemonCPU) / float64(p.meas) * 1e6 * refScale(p.refMS)
}

// addRef records the reference samples of a loop of workers: their
// durations, and the wall time the load lost to them.
func (p *phase) addRef(workers int, probes ...*speedProbe) {
	total := 0.0
	for _, pr := range probes {
		p.refMS = append(p.refMS, pr.ms...)
		for _, ms := range pr.ms {
			total += ms
		}
	}
	p.refWallS += total / 1e3 / float64(workers)
}

// serverReport is what a workload's serving side reports at teardown.
type serverReport struct {
	have                bool // false when nothing served sessions
	accepted, rejected  float64
	completed, queueHWM float64
}

// coverage says which layers a workload's own traffic already measures,
// so the traced run only adds layer passes for the rest.
type coverage struct {
	tcp      bool // sessions travel over metered TCP connections
	sessions bool // the benchmark pushes into serve.Session itself
	trials   bool // the workload runs simulator trials itself
}

// workload is one of the four benchmark loads.
type workload interface {
	// setup simulates the inputs from the seed and readies the system.
	setup(rec *recorder) error
	// measure drives load for d (sessions started before the deadline
	// finish) and fills ph.
	measure(d time.Duration, rec *recorder, ph *phase) error
	// daemon is the serving child process, or nil in process.
	daemon() *daemon
	// teardown stops what setup started. It is safe to call twice.
	teardown() (serverReport, error)
	// layerCapture is the capture the traced layer passes run over.
	layerCapture() *capture
	coverage() coverage
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "wire-replay":
		return &wireReplay{o: o}, nil
	case "frame-decode":
		return &frameDecode{o: o}, nil
	case "paced-live":
		return &pacedLive{o: o}, nil
	case "sim-trials":
		return &simTrials{o: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// verdicter is a workload with a run-level correctness gate on top of
// its per-session checks.
type verdicter interface {
	// verdict summarizes the gate and fails it with an error.
	verdict() (string, error)
}

// applyVerdict folds a workload's run-level gate into the tally.
func applyVerdict(o options, w workload, t *tally) {
	v, ok := w.(verdicter)
	if !ok {
		return
	}
	msg, err := v.verdict()
	fmt.Fprintf(o.log, "perfbench: %s: %s\n", o.workload, msg)
	if err != nil {
		t.mismatch("%v", err)
	}
}

// runWorkload sets the workload up (several times for an end-to-end run,
// once for a traced run), warms it, measures it and tears it down.
func runWorkload(o options) (*result, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer func() { _, _ = w.teardown() }()
	res := &result{workload: o.workload, metrics: metricSet{}, defs: endToEnd}
	var rec *recorder
	setups := o.sc.setups
	if o.trace {
		rec, setups, res.defs = newRecorder(), 1, perLayer
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			if _, err := w.teardown(); err != nil {
				return nil, err
			}
			// Drop the previous set-up's inputs so peak RSS reflects one.
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if err := w.setup(rec); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	fmt.Fprintf(o.log, "perfbench: %s: set-up %.3fs (median of %d)\n", o.workload, median(setupS), len(setupS))
	warm, err := measured(w, o.sc.warmupS, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.t.add(warm.t)
	if !o.trace {
		ph, err := measured(w, o.seconds, nil)
		if err != nil {
			return nil, err
		}
		res.t.add(ph.t)
		applyVerdict(o, w, &res.t)
		if _, err := w.teardown(); err != nil {
			return nil, err
		}
		if err := endToEndMetrics(o, res.metrics, setupS, &ph); err != nil {
			return nil, err
		}
		return res, nil
	}
	// Traced run: half the time untraced, half traced, so the difference
	// is the tracing overhead; then the layer passes.
	a, err := measured(w, o.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	b, err := measured(w, o.seconds/2, rec)
	if err != nil {
		return nil, err
	}
	res.t.add(a.t)
	res.t.add(b.t)
	applyVerdict(o, w, &res.t)
	if a.meas == 0 || b.meas == 0 {
		return nil, fmt.Errorf("a traced phase served nothing (%s)", res.t.String())
	}
	if err := layerMetrics(o, w, rec, res.metrics, &b); err != nil {
		return nil, err
	}
	rep, err := w.teardown()
	if err != nil {
		return nil, err
	}
	m := res.metrics
	m["trace.overhead_pct"] = (b.cpuPerMeas()/a.cpuPerMeas() - 1) * 100
	if rep.have {
		setSessionMetrics(m, rep)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	if err := rec.writeSpans(path, o.workload, o.seed); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(o.log, "perfbench: %s: spans written to %s\n", o.workload, path)
	return res, nil
}

// measured runs one load phase and charges CPU, GC cycles, wall time
// and the serving process's resident set to it.
func measured(w workload, seconds float64, rec *recorder) (phase, error) {
	var ph phase
	d := w.daemon()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var dcpu0 float64
	serving := os.Getpid()
	if d != nil {
		var err error
		if dcpu0, err = d.cpuSeconds(); err != nil {
			return ph, err
		}
		serving = d.pid()
	}
	rss := startRSS(serving)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	err := w.measure(time.Duration(seconds*float64(time.Second)), rec, &ph)
	// The reference kernel is not load: take its time out of the phase.
	refCPU := 0.0
	for _, ms := range ph.refMS {
		refCPU += ms / 1e3
	}
	ph.wall = time.Since(t0).Seconds() - ph.refWallS
	ph.procCPU = cpuSeconds() - cpu0 - refCPU
	if d != nil {
		dcpu1, derr := d.cpuSeconds()
		if derr != nil && err == nil {
			err = derr
		}
		ph.daemonCPU = dcpu1 - dcpu0
	}
	peaks, rerr := rss.finish()
	if rerr != nil && err == nil {
		err = rerr
	}
	ph.rssPeaks = peaks
	runtime.ReadMemStats(&ms1)
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	return ph, err
}

// endToEndMetrics fills the untraced run's metrics. Times are on the
// reference clock (see hostspeed.go) when the phase sampled the kernel;
// set-up time and memory are not rescaled.
func endToEndMetrics(o options, m metricSet, setupS []float64, ph *phase) error {
	if ph.meas == 0 || ph.units == 0 {
		return fmt.Errorf("the measured phase served nothing (%s)", ph.t.String())
	}
	k := refScale(ph.refMS)
	wall, cpu := ph.wall*k, (ph.procCPU+ph.daemonCPU)*k
	m["setup_s"] = median(setupS)
	m["meas_per_s"] = float64(ph.meas) / wall
	m["cpu_us_per_meas"] = cpu / float64(ph.meas) * 1e6
	m["close_to_bit_p50_ms"] = percentile(ph.latMS, 50) * k
	m["close_to_bit_p90_ms"] = percentile(ph.latMS, 90) * k
	m["trials_per_s"] = float64(ph.units) / wall
	m["cpu_ms_per_trial"] = cpu / float64(ph.units) * 1e3
	m["peak_rss_mb"] = median(ph.rssPeaks)
	fmt.Fprintf(o.log, "perfbench: %s: %d sessions/trials, %d measurements in %.2fs; close_to_bit from %d samples (highest supported percentile p%g); %s\n",
		o.workload, ph.units, ph.meas, ph.wall, len(ph.latMS),
		supportedPercentile(len(ph.latMS), []float64{50, 90, 99, 99.9}), ph.t.String())
	if len(ph.refMS) > 0 {
		fmt.Fprintf(o.log, "perfbench: %s: reference kernel %.3f ms (median of %d), so times are scaled by %.4f; wall figures: %.6g meas/s, %.6g us CPU per measurement\n",
			o.workload, median(ph.refMS), len(ph.refMS), k,
			float64(ph.meas)/ph.wall, (ph.procCPU+ph.daemonCPU)/float64(ph.meas)*1e6)
	}
	return nil
}
