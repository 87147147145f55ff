package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile before a run
// may report it: a p90 from 50 samples rests on five values and moves with
// every outlier.
const minBeyond = 10

// supportedPercentile returns the highest of the candidate percentiles
// (ascending, in percent) that n samples support with at least minBeyond
// samples above it, or 0 when none is supported.
func supportedPercentile(n int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if n-nearestRank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// nearestRank is the 1-based rank of percentile p among n samples,
// clamped to [1, n]. The tolerance keeps p·n/100 that is an integer in
// exact arithmetic (90% of 100) from rounding up a rank.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// percentile returns the nearest-rank percentile p (in percent) of xs,
// which it sorts in place. An empty slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[nearestRank(len(xs), p)-1]
}

// median is percentile 50 over a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// tally counts the outcome of every session or trial a workload
// attempted. Nothing attempted is ever dropped from it: a session that
// was refused, errored or timed out still counts against attempts.
type tally struct {
	attempted, completed        int
	rejected, errored, timedOut int
	mismatched                  int
	mismatchNotes               []string
}

// failed counts every attempt that did not complete with a correct
// result.
func (t *tally) failed() int {
	return t.rejected + t.errored + t.timedOut + t.mismatched
}

// failRatio is failed over attempted (0 when nothing was attempted).
func (t *tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// mismatch records a correctness failure; the first few keep their
// detail for the report.
func (t *tally) mismatch(format string, args ...any) {
	t.mismatched++
	if len(t.mismatchNotes) < 5 {
		t.mismatchNotes = append(t.mismatchNotes, fmt.Sprintf(format, args...))
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.rejected += o.rejected
	t.errored += o.errored
	t.timedOut += o.timedOut
	for _, n := range o.mismatchNotes {
		if len(t.mismatchNotes) < 5 {
			t.mismatchNotes = append(t.mismatchNotes, n)
		}
	}
	t.mismatched += o.mismatched
}

// String prints the ratio with every count next to it.
func (t *tally) String() string {
	return fmt.Sprintf("fail_ratio %.4f (%d failed of %d attempted: %d rejected, %d errored, %d timed out, %d mismatched; %d completed)",
		t.failRatio(), t.failed(), t.attempted, t.rejected, t.errored, t.timedOut, t.mismatched, t.completed)
}

// cpuSeconds is the user+system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// procRSSMB reads a process's current resident set size (VmRSS) from
// /proc/<pid>/status.
func procRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("perfbench: /proc/%d/status VmRSS: %w", pid, err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("perfbench: no VmRSS in /proc/%d/status", pid)
}

// rssSampler samples a process's resident set every rssInterval while a
// phase runs and keeps the largest sample of each rssWindow. The median
// of those window peaks is the phase's peak RSS: a single maximum moves
// by a tenth from run to run with where the garbage collector happens to
// run, a median of peaks does not.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

const (
	rssInterval = 50 * time.Millisecond
	rssWindow   = 2 * time.Second
)

func startRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		peak, n := 0.0, 0
		for {
			select {
			case <-s.stop:
				if n > 0 {
					s.peaks = append(s.peaks, peak)
				}
				return
			case <-t.C:
				v, err := procRSSMB(pid)
				if err != nil {
					s.err = err
					return
				}
				if v > peak {
					peak = v
				}
				if n++; n == int(rssWindow/rssInterval) {
					s.peaks = append(s.peaks, peak)
					peak, n = 0, 0
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the window peaks in MB.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.peaks, s.err
}

// clockTicksPerSecond is Linux's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux ABI.
const clockTicksPerSecond = 100

// procCPUSeconds reads another process's user+system CPU time from
// /proc/<pid>/stat, so a phase of a long-running child can be charged
// without waiting for it to exit.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; the fields after its
	// closing parenthesis are space-separated, state first.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("perfbench: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// utime and stime are fields 14 and 15 of the full line, 12 and 13
	// after the name.
	if len(f) < 13 {
		return 0, fmt.Errorf("perfbench: short /proc/%d/stat", pid)
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("perfbench: /proc/%d/stat utime: %w", pid, err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("perfbench: /proc/%d/stat stime: %w", pid, err)
	}
	return float64(ut+st) / clockTicksPerSecond, nil
}
