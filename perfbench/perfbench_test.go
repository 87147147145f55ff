package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/uplink"
)

func TestSupportedPercentile(t *testing.T) {
	cands := []float64{50, 90, 99, 99.9}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(tc.n, cands); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {50, 5}, {90, 9}, {91, 10}, {100, 10}} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name       string
		start, end float64
		children   [][2]float64
		want       float64
	}{
		{"no children", 0, 10, nil, 10},
		{"disjoint", 0, 10, [][2]float64{{1, 2}, {4, 7}}, 6},
		{"overlapping children count once", 0, 10, [][2]float64{{1, 3}, {2, 5}}, 6},
		{"nested child", 0, 10, [][2]float64{{1, 6}, {2, 3}}, 5},
		{"clipped to the parent", 0, 10, [][2]float64{{-5, 2}, {8, 12}}, 6},
		{"outside the parent", 0, 10, [][2]float64{{11, 12}}, 10},
		{"fully covered", 0, 10, [][2]float64{{0, 6}, {5, 10}}, 0},
		{"empty parent", 5, 5, [][2]float64{{0, 10}}, 0},
	} {
		if got := selfTime(tc.start, tc.end, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestReferenceClock checks the rescaling of a phase's times by its
// reference kernel samples, and that the kernel's time is not charged to
// the load.
func TestReferenceClock(t *testing.T) {
	if got := refScale(nil); got != 1 {
		t.Errorf("refScale with no samples = %v, want 1", got)
	}
	p := newSpeedProbe()
	p.sample()
	p.sample()
	if len(p.ms) != 2 || p.ms[0] <= 0 || p.ms[1] <= 0 {
		t.Fatalf("kernel durations %v", p.ms)
	}
	// Two workers, four samples of 2·refNominalMS: the host ran at half
	// speed, and each worker lost 2·2·refNominalMS ms of wall time.
	a, b := &speedProbe{ms: []float64{2 * refNominalMS, 2 * refNominalMS}}, &speedProbe{ms: []float64{2 * refNominalMS, 2 * refNominalMS}}
	ph := phase{meas: 1000, units: 10, wall: 2, procCPU: 1, latMS: []float64{10}, rssPeaks: []float64{5}}
	ph.addRef(2, a, b)
	if want := 4 * refNominalMS / 1e3; math.Abs(ph.refWallS-want) > 1e-12 {
		t.Errorf("refWallS = %v, want %v", ph.refWallS, want)
	}
	if got := refScale(ph.refMS); got != 0.5 {
		t.Fatalf("refScale = %v, want 0.5", got)
	}
	m := metricSet{}
	if err := endToEndMetrics(options{log: io.Discard}, m, []float64{0.3}, &ph); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"meas_per_s": 1000, "trials_per_s": 10, // 1000 and 10 in one reference second
		"cpu_us_per_meas": 500, "cpu_ms_per_trial": 50,
		"close_to_bit_p50_ms": 5, "close_to_bit_p90_ms": 5,
		"setup_s": 0.3, "peak_rss_mb": 5, // not rescaled
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

func TestRecorderSummary(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.base.Add(time.Duration(ms) * time.Millisecond) }
	r.interval("trial", spanRef{}, 0, at(0), at(100), nil)
	parent := spanRef{r: r, id: 1}
	r.interval("build", parent, 0, at(0), at(10), map[string]float64{"n": 2})
	r.interval("run", parent, 0, at(10), at(70), nil)
	r.interval("decode", parent, 0, at(60), at(90), map[string]float64{"n": 3})
	var nilRec *recorder
	nilRec.begin("ignored", spanRef{}, 0).end(nil)

	sums := r.summarize()
	trial := find(sums, "trial")
	if trial.Count != 1 || trial.TotalMS != 100 || trial.SelfMS != 10 {
		t.Errorf("trial summary %+v, want 1 span, 100 ms total, 10 ms self", trial)
	}
	if run := find(sums, "run"); run.meanMS() != 60 || run.SelfMS != 60 {
		t.Errorf("run summary %+v, want 60 ms, all self", run)
	}
	if got := find(sums, "build").Counters["n"]; got != 2 {
		t.Errorf("build counter n = %v, want 2", got)
	}
	if got := find(sums, "missing"); got.Count != 0 || got.meanMS() != 0 {
		t.Errorf("missing span summary %+v, want empty", got)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.writeSpans(path, "w", 7); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans   []span
		Summary []spanSummary
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 4 || len(doc.Summary) != 4 || doc.Spans[3].Parent != 1 {
		t.Errorf("written spans %+v / summary %+v", doc.Spans, doc.Summary)
	}
}

func TestTallyAccounting(t *testing.T) {
	var a, b tally
	classify(&a, nil, false, 0)
	classify(&a, fmt.Errorf("open: %w", serve.ErrOverloaded), false, 1)
	classify(&a, errors.New("rejected: draining"), true, 2)
	classify(&a, fmt.Errorf("%w: read", errTimedOut), false, 3)
	classify(&b, &errMismatch{errors.New("bit 3 differs")}, false, 4)
	classify(&b, errors.New("connection reset"), false, 5)
	classify(&b, nil, false, 6)
	a.add(b)
	if a.attempted != 7 || a.completed != 2 || a.rejected != 2 || a.timedOut != 1 || a.errored != 1 || a.mismatched != 1 {
		t.Fatalf("tally %+v", a)
	}
	if a.failed() != 5 || a.failRatio() != 5.0/7 {
		t.Errorf("failed %d ratio %v, want 5 and 5/7", a.failed(), a.failRatio())
	}
	if len(a.mismatchNotes) != 1 || !strings.Contains(a.mismatchNotes[0], "session 4") {
		t.Errorf("mismatch notes %q", a.mismatchNotes)
	}
	var empty tally
	if empty.failRatio() != 0 {
		t.Errorf("empty fail ratio %v", empty.failRatio())
	}
}

// smokeScale is a seconds-long version of every workload.
func smokeScale() scale {
	return scale{
		workers:       2,
		setups:        2,
		warmupS:       0.1,
		captures:      2,
		pacedCaptures: 2,
		wireCaptureS:  2.5,
		wirePayload:   20,
		decodePayload: 40,
		pacedPayload:  10,
		pacedSpeedup:  10,
		trialPayload:  20,
		trialPPB:      30,
		layerMeas:     300,
	}
}

func smokeCapture(t *testing.T) *capture {
	t.Helper()
	c, err := newCapture(5, 0, captureSpec{payloadLen: 12, bitRate: tagBitRate, distanceCM: 5, trim: true}, nil, spanRef{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGateCatchesFlippedBit(t *testing.T) {
	c := smokeCapture(t)
	srv := serve.NewServer(serve.Config{})
	defer func() { _ = srv.Drain() }()
	out, err := pushSession(srv, c, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := bitString(out.res.Payload)
	corr, mpb := out.res.PreambleCorrelation, out.res.MeasurementsPerBit
	if err := c.ref.check(out.bits, payload, corr, mpb); err != nil {
		t.Fatalf("unmodified session fails the gate: %v", err)
	}
	flipped := append([]uplink.BitDecision(nil), out.bits...)
	flipped[3].Bit = !flipped[3].Bit
	if err := c.ref.check(flipped, payload, corr, mpb); err == nil {
		t.Error("a flipped streamed bit passed the gate")
	}
	p := []byte(payload)
	p[5] ^= 1 // '0' <-> '1'
	if err := c.ref.check(out.bits, string(p), corr, mpb); err == nil {
		t.Error("a flipped done payload passed the gate")
	}
	if err := c.ref.check(out.bits[1:], payload, corr, mpb); err == nil {
		t.Error("a missing bit line passed the gate")
	}
}

// flipProxy relays one connection at a time to the server at target,
// flipping the value of the first "bit" line it relays back.
func flipProxy(t *testing.T, target string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { _ = l.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			client, err := l.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", target)
			if err != nil {
				_ = client.Close()
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(server, client)
			}()
			br := bufio.NewReader(server)
			flipped := false
			for {
				line, err := br.ReadBytes('\n')
				if len(line) > 0 && !flipped && bytes.HasPrefix(line, []byte("bit ")) {
					f := bytes.Fields(line)
					f[2][0] ^= 1
					line = append(bytes.Join(f, []byte(" ")), '\n')
					flipped = true
				}
				if _, werr := client.Write(line); werr != nil || err != nil {
					break
				}
			}
			_ = client.Close()
			_ = server.Close()
		}
	}()
	return l.Addr().String()
}

func TestReplayGateOverTCP(t *testing.T) {
	c := smokeCapture(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{})
	served := make(chan error, 1)
	go func() { served <- srv.ServeTCP(l) }()
	defer func() {
		_ = l.Close()
		<-served
		_ = srv.Drain()
	}()
	var tl tally
	out := replaySession(l.Addr().String(), c, 0, nil, spanRef{})
	classify(&tl, out.err, out.rejected, 0)
	if out.err != nil || out.firstReply.IsZero() || out.tcp.sent == 0 {
		t.Fatalf("clean replay: err %v, first reply %v, tcp %+v", out.err, out.firstReply, out.tcp)
	}
	out = replaySession(flipProxy(t, l.Addr().String()), c, 1, nil, spanRef{})
	classify(&tl, out.err, out.rejected, 1)
	if tl.completed != 1 || tl.mismatched != 1 || tl.failed() != 1 {
		t.Errorf("after one clean and one flipped session: %s", tl.String())
	}
}

// binDir holds the daemon the smoke tests build; TestMain removes it.
var binDir string

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		_ = os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// wbservedBin builds the daemon once for the smoke tests.
var wbservedBin = sync.OnceValues(func() (string, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return "", err
	}
	if binDir, err = os.MkdirTemp("", "perfbench-wbserved"); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "wbserved")
	out, err := exec.Command(goBin, "build", "-o", bin, "repro/cmd/wbserved").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build wbserved: %v: %s", err, out)
	}
	return bin, nil
})

func TestSmokeEveryWorkload(t *testing.T) {
	bin, err := wbservedBin()
	if err != nil {
		t.Skipf("cannot build wbserved: %v", err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				o := options{
					workload: name, seed: 3, seconds: 0.6, trace: traced,
					wbserved: bin, outDir: t.TempDir(), sc: smokeScale(), log: io.Discard,
				}
				res, err := runWorkload(o)
				if err != nil {
					t.Fatal(err)
				}
				line, err := res.jsonLine()
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &doc); err != nil {
					t.Fatal(err)
				}
				if !doc.Correct || doc.Attempted < 1 || doc.Failed != 0 {
					t.Errorf("outcome %+v: %s", doc, res.t.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
					if _, err := os.Stat(filepath.Join(o.outDir, fmt.Sprintf("trace-%s-3.json", name))); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
				if len(doc.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(doc.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := doc.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
			})
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the Go metric lists and the
// repository's BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	gated := slices.DeleteFunc(slices.Clone(workloadNames), func(n string) bool { return n == "paced-live" })
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(doc.Workloads), len(gated))
	}
	for i, w := range doc.Workloads {
		if w.Name != gated[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, want %s", i, w.Name, gated[i])
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-workload", "sim-trials", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}
