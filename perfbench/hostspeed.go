package main

//wblint:file-ignore DT001 the reference kernel is timed on the wall clock: its duration is the host-speed sample

import (
	"math"
	"time"
)

// The host this benchmark runs on is a few vCPUs of a shared machine.
// Its speed is not constant: a fixed CPU-bound loop runs anywhere between
// full and half speed from one second to the next, with CPU time stretching
// as much as wall time, so neither wall nor CPU figures of a 25 s run repeat
// to better than 10-25%. The closed-loop workloads therefore time a fixed
// reference kernel on each worker before every session or trial, and report
// their time-derived metrics on the reference clock: one reference
// millisecond is however long the kernel took at the run's median, divided
// by refNominalMS. The open-loop paced-live takes no samples: run beside
// its load, the kernel delayed the sessions it times. A program change cannot move the kernel, which is
// benchmark code and touches nothing of the program, so a real speed-up
// still shows in full; a slow host stretches the kernel and the workload
// alike and cancels out.

// refNominalMS is the kernel's duration, in reference milliseconds. The
// kernel is sized to take about this long at full speed on a 2-vCPU Xeon
// VM, so figures on the reference clock read close to wall figures there.
const refNominalMS = 2.3

// The kernel spends about equal time on two halves, because contention on
// the shared host slows them differently: scattered updates of a table
// larger than L2 (cache-bound, like the decoder's arena and the wire
// buffers) slow the most, a chain of dependent square roots (latency-bound,
// like the radio model's arithmetic) the least, and the workloads fall in
// between. On that host, either half alone over- or under-corrected the
// workloads' run-to-run drift; the two together tracked it.
const (
	refWords   = 1 << 17 // 1 MiB of float64
	refScatter = 300000  // scattered read-modify-writes into the table
	refChain   = 150000  // dependent square roots
)

// speedProbe runs the reference kernel and keeps its durations. Each
// worker owns one; probes are merged into the phase when the worker ends.
type speedProbe struct {
	buf  []float64
	ms   []float64
	sink float64
}

func newSpeedProbe() *speedProbe { return &speedProbe{buf: make([]float64, refWords)} }

// sample runs the kernel once and records how long it took.
func (p *speedProbe) sample() {
	t0 := time.Now()
	x, idx := 0.0, uint32(1)
	for i := 0; i < refScatter; i++ {
		idx = idx*1664525 + 1013904223
		j := (idx >> 8) & (refWords - 1)
		p.buf[j] += math.Sqrt(float64(i))
		x += p.buf[(j*7)&(refWords-1)]
	}
	y := 1.0
	for i := 0; i < refChain; i++ {
		y = math.Sqrt(y + float64(i&1023))
	}
	p.sink += x + y
	p.ms = append(p.ms, msBetween(t0, time.Now()))
}

// refScale converts wall (or CPU) time to reference time: multiply a
// duration by it, divide a rate by it. It is 1 when the phase took no
// samples (paced-live).
func refScale(samplesMS []float64) float64 {
	if len(samplesMS) == 0 {
		return 1
	}
	return refNominalMS / median(samplesMS)
}
