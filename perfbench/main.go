// Command perfbench is the repository benchmark. From a workload seed it
// simulates its own captures with the repo's simulator, drives one of
// four workloads through the decode pipeline, checks every served bit
// against the batch decoder, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with
// tracing off. With -trace 1 they are the per-layer set, from a run that
// records spans around the benchmark's calls into each layer and writes
// them to <out>/trace-<workload>-<seed>.json.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	perfbench -workload wire-replay -seed 1 -seconds 10 -trace 0 -wbserved path/to/wbserved
//	perfbench -workload all -seed 1 -seconds 5 -wbserved path/to/wbserved
//
// Workloads: wire-replay and paced-live drive a wbserved child process
// over loopback TCP; frame-decode drives serve.Server in process;
// sim-trials runs simulator trials on the parallel engine. See
// perfbench/README.md for why each exists and what it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// metricDef names a metric and its unit. The two lists below are the
// metric sets BENCHMARK.json declares, in its order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"meas_per_s", "meas/s"},
	{"cpu_us_per_meas", "us"},
	{"close_to_bit_p50_ms", "ms"},
	{"close_to_bit_p90_ms", "ms"},
	{"trials_per_s", "trials/s"},
	{"cpu_ms_per_trial", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"serve.wire.encode_us_per_meas", "us"},
	{"serve.wire.parse_us_per_meas", "us"},
	{"serve.wire.bytes_per_meas", "B"},
	{"serve.tcp.write_blocked_ms_per_session", "ms"},
	{"serve.tcp.bytes_sent_per_session", "B"},
	{"serve.tcp.bytes_recv_per_session", "B"},
	{"serve.session.push_us_per_meas", "us"},
	{"serve.session.queue_highwater", "count"},
	{"serve.session.accepted", "count"},
	{"serve.session.rejected", "count"},
	{"serve.session.completed", "count"},
	{"uplink.push_us_per_meas", "us"},
	{"uplink.frame_close_ms", "ms"},
	{"uplink.select_mrc_ms_per_frame", "ms"},
	{"uplink.allocs_per_frame", "count"},
	{"uplink.decode_ms_per_trial", "ms"},
	{"dsp.condition_ms_per_frame", "ms"},
	{"core.build_ms_per_trial", "ms"},
	{"sim.run_ms_per_trial", "ms"},
	{"sim.events_per_trial", "count"},
	{"wifi.frames_delivered_per_trial", "count"},
	{"radio.observe_us_per_meas", "us"},
	{"csi.measure_us_per_meas", "us"},
	{"parallel.busy_share", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_share", "ratio"},
	{"client.cpu_us_per_meas", "us"},
	{"server.cpu_us_per_meas", "us"},
	{"gc.cycles_per_1k_meas", "count"},
	{"trace.overhead_pct", "%"},
}

// workloadNames are fixed: later changes cite them. BENCHMARK.json gates
// every one but paced-live, whose open-loop latency tail on a shared
// 2-vCPU host spread further between runs of the same code than any bound
// the file admits; it stays runnable for latency studies.
var workloadNames = []string{"wire-replay", "frame-decode", "paced-live", "sim-trials"}

// metricSet collects one run's metric values by name.
type metricSet map[string]float64

// result is one workload run's outcome.
type result struct {
	workload string
	t        tally
	metrics  metricSet
	defs     []metricDef
}

// correct is the run's correctness verdict: no session or trial decoded
// differently from its reference.
func (r *result) correct() bool { return r.t.mismatched == 0 }

// jsonLine renders the result line that ends standard output.
func (r *result) jsonLine() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.defs))
	for _, d := range r.defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		ms[d.name] = val{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.t.attempted, r.t.failed(), ms})
}

// writeTable prints every metric by name with its unit, in declared
// order, then the outcome counts.
func (r *result) writeTable(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", r.workload)
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.name, r.metrics[d.name], d.unit)
	}
	fmt.Fprintf(w, "%s\n", r.t.String())
	for _, n := range r.t.mismatchNotes {
		fmt.Fprintf(w, "MISMATCH %s\n", n)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs the chosen workload(s) and prints the results.
// It returns the process exit code: 0 only when every run completed and
// every served bit matched its reference.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{sc: defaultScale(), log: stderr}
	fs.StringVar(&o.workload, "workload", "all", "workload: "+strings.Join(workloadNames, ", ")+" or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "how long each run measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	fs.StringVar(&o.wbserved, "wbserved", "", "path to a wbserved binary (required by wire-replay and paced-live)")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for span files and daemon metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	o.seconds, o.trace = *seconds, *trace == 1
	names := workloadNames
	if o.workload != "all" {
		if !slices.Contains(workloadNames, o.workload) {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", o.workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: seed %d, %gs per run, GOMAXPROCS %d, %s\n",
		o.seed, o.seconds, runtime.GOMAXPROCS(0), runtime.Version())
	code := 0
	for _, name := range names {
		o.workload = name
		res, err := runWorkload(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		res.writeTable(stdout)
		line, err := res.jsonLine()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if !res.correct() {
			fmt.Fprintf(stderr, "perfbench: %s: %d sessions or trials differ from their reference\n", name, res.t.mismatched)
			code = 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}
