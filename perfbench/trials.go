package main

//wblint:file-ignore DT001 trials run against a wall-clock deadline and are timed for the trial metrics
//wblint:file-ignore DT005 trial timings flow into the benchmark's printed metrics; the decoded payloads depend only on the seed

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// simTrials: closed loop on parallel.New(workers).ForEach. Each trial is
// a Fig. 10a-style run: core.NewSystem, a CBR helper at 1000 pkt/s, a
// 90-bit payload at 30 packets per bit, System.Run, then the system's
// uplink decoder's DecodeCSI. The tag distance cycles through 5, 10, 20
// and 30 cm by trial index, all inside the paper's working range.
//
// The simulated channel is noisy, so a trial may decode a bit wrong even
// there: in this reproduction about one 20 cm trial in three hundred does,
// and one 30 cm trial in eighty (BER near 4e-4), in line with the repo's
// Fig. 10a table. The correctness gate is therefore the paper's
// claim rather than exact decoding: the payload bit error rate over all
// of the run's trials must stay below maxBER. A decoder that broke would
// miss half the bits.
type simTrials struct {
	o     options
	next  atomic.Int64
	layer *capture

	mu            sync.Mutex
	bits, bitErrs [4]int // per entry of trialDistancesCM
}

// maxBER is the paper's working-range bound: BER below 1e-2 up to about
// 65 cm at 30 packets per bit (§7, Fig. 10a).
const maxBER = 1e-2

// trialDistancesCM is the distance cycle; trial i runs at entry i%4.
var trialDistancesCM = [4]float64{5, 10, 20, 30}

func (w *simTrials) spec(i int) captureSpec {
	return captureSpec{
		payloadLen: w.o.sc.trialPayload,
		bitRate:    helperPacketsPerSecond / w.o.sc.trialPPB,
		distanceCM: trialDistancesCM[i%len(trialDistancesCM)],
		tailS:      0.5,
	}
}

// setup decodes one calibration trial per distance on the engine, which
// also fills the decoder's scratch pools before anything is timed, and
// keeps trial 0 as a capture for the traced layer passes.
func (w *simTrials) setup(rec *recorder) error {
	w.mu.Lock()
	w.bits, w.bitErrs = [4]int{}, [4]int{}
	w.mu.Unlock()
	parent := rec.begin("setup.calibration", spanRef{}, -1)
	defer parent.end(nil)
	var mu sync.Mutex
	var t tally
	err := parallel.New(w.o.sc.workers).ForEach(len(trialDistancesCM), func(i int) error {
		_, err := w.trial(i, nil, spanRef{})
		mu.Lock()
		defer mu.Unlock()
		classify(&t, err, false, i)
		return nil
	})
	if err != nil {
		return err
	}
	if t.failed() > 0 {
		return fmt.Errorf("calibration trials failed: %s %v", t.String(), t.mismatchNotes)
	}
	w.layer, err = newCapture(w.o.seed, 0, w.spec(0), rec, parent)
	return err
}

// trialOutcome is one finished trial.
type trialOutcome struct {
	meas     int
	decodeMS float64
}

// trial runs trial i end to end and checks the decoded payload.
func (w *simTrials) trial(i int, rec *recorder, parent spanRef) (trialOutcome, error) {
	var out trialOutcome
	spec := w.spec(i)
	sp := rec.begin("sim.trial", parent, i)
	defer sp.end(nil)
	sys, mod, sent, err := simulate(rng.TrialSeed(w.o.seed, i), spec, rec, sp, i)
	if err != nil {
		return out, err
	}
	dec, err := sys.UplinkDecoder(spec.bitRate)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	res, err := dec.DecodeCSI(sys.Series(), mod.Start(), spec.payloadLen)
	t1 := time.Now()
	rec.interval("uplink.decode", sp, i, t0, t1, nil)
	if err != nil {
		return out, err
	}
	if len(res.Payload) != len(sent) {
		return out, &errMismatch{fmt.Errorf("trial %d decoded %d payload bits, sent %d", i, len(res.Payload), len(sent))}
	}
	w.mu.Lock()
	w.bits[i%len(trialDistancesCM)] += len(sent)
	w.bitErrs[i%len(trialDistancesCM)] += core.CountBitErrors(res.Payload, sent)
	w.mu.Unlock()
	// The whole capture is in hand when the simulation stops; the bits
	// exist once the batch decode returns.
	out.meas, out.decodeMS = sys.Series().Len(), msBetween(t0, t1)
	return out, nil
}

// errDeadline stops the engine's dispatch once the run's time is up.
var errDeadline = errors.New("deadline reached")

func (w *simTrials) measure(d time.Duration, rec *recorder, ph *phase) error {
	t0 := time.Now()
	deadline := t0.Add(d)
	base := int(w.next.Load())
	var mu sync.Mutex
	last := base - 1
	// The engine's lateness is the gap between the latest completion and
	// the next trial's start: how long a freed worker waited for work.
	lastEnd := t0
	// At most workers trials run at once, so a free list of that many
	// probes gives each its own; each samples the reference kernel before
	// its trial, beside the other workers' trials.
	probes := make([]*speedProbe, w.o.sc.workers)
	free := make(chan *speedProbe, len(probes))
	for k := range probes {
		probes[k] = newSpeedProbe()
		free <- probes[k]
	}
	err := parallel.New(w.o.sc.workers).ForEach(math.MaxInt32, func(j int) error {
		start := time.Now()
		if !start.Before(deadline) {
			return errDeadline
		}
		mu.Lock()
		ph.lateMS = append(ph.lateMS, msBetween(lastEnd, start))
		mu.Unlock()
		probe := <-free
		probe.sample()
		free <- probe
		i := base + j
		out, err := w.trial(i, rec, spanRef{})
		mu.Lock()
		defer mu.Unlock()
		lastEnd = time.Now()
		if i > last {
			last = i
		}
		classify(&ph.t, err, false, i)
		if err == nil {
			ph.meas += int64(out.meas)
			ph.units++
			ph.latMS = append(ph.latMS, out.decodeMS)
		}
		return nil
	})
	w.next.Store(int64(last + 1))
	ph.addRef(w.o.sc.workers, probes...)
	if !errors.Is(err, errDeadline) {
		return err
	}
	return nil
}

// verdict applies the bit-error-rate gate to every trial decoded since
// the last set-up.
func (w *simTrials) verdict() (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var sb strings.Builder
	bits, errs := 0, 0
	for k, cm := range trialDistancesCM {
		fmt.Fprintf(&sb, ", %g cm %d/%d", cm, w.bitErrs[k], w.bits[k])
		bits += w.bits[k]
		errs += w.bitErrs[k]
	}
	if bits == 0 {
		return "no trial decoded", errors.New("no trial decoded")
	}
	ber := float64(errs) / float64(bits)
	msg := fmt.Sprintf("payload BER %.3g (%d bit errors in %d bits%s)", ber, errs, bits, sb.String())
	if ber >= maxBER {
		return msg, fmt.Errorf("payload BER %.3g is not below the paper's %g", ber, maxBER)
	}
	return msg, nil
}

func (w *simTrials) daemon() *daemon { return nil }

func (w *simTrials) teardown() (serverReport, error) { return serverReport{}, nil }

func (w *simTrials) layerCapture() *capture { return w.layer }

func (w *simTrials) coverage() coverage { return coverage{trials: true} }
