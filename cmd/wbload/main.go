// Command wbload is the load-generating client for wbserved: it replays
// one wbtrace capture over many concurrent wbserve/1 sessions and
// verifies that every served decode is byte-identical to the local batch
// decoder's answer on the same trace — the serving layer must never
// change a bit, no matter how many neighbors it is multiplexing.
//
// Usage:
//
//	wbtrace -what csi > trace.csv
//	wbserved -addr 127.0.0.1:4711 &
//	wbload -addr 127.0.0.1:4711 -n 64 -rate 100 -start 1.0 -payload 300 trace.csv
//
// With -addr "" wbload self-hosts an in-process server on a loopback
// listener, which makes the equivalence check a one-command experiment
// (see EXPERIMENTS.md).
//
// With -chaos every stream is opened resumable and routed through the
// wire-level fault proxy (internal/serve/chaosproxy): the named profile
// or inline schedule is compiled per stream into connection cuts,
// partial writes, and stalls, and the equivalence check must STILL hold
// — every resumed stream's bits byte-identical to batch. Same -seed and
// -chaos spec replay the identical fault plan, so a -metrics snapshot
// of a chaos run is byte-reproducible regardless of -workers:
//
//	wbload -n 8 -workers 8 -chaos wire-flaky -seed 7 -payload 20 \
//	       -metrics chaos.json trace.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/chaosproxy"
	"repro/internal/tracecsv"
	"repro/internal/uplink"
)

// loadConfig carries every knob of one wbload run; flags parse into it
// and tests construct it directly.
type loadConfig struct {
	addr     string  // wbserved address; empty self-hosts
	sessions int     // -n: concurrent streams (chaos lanes)
	workers  int     // -workers: replay pool size; 0 means sessions
	rate     float64 // -rate: tag bit rate, bits/s
	start    float64 // -start: transmission start, seconds
	payload  int     // -payload: payload bits (required)
	mode     string  // -mode: csi or rssi
	chaos    string  // -chaos: fault profile name or inline schedule
	seed     int64   // -seed: chaos plan seed
	chaosBPS float64 // -chaos-bps: seconds→bytes mapping for the proxy
	metrics  string  // -metrics: JSON snapshot path (deterministic set)
}

func main() {
	var cfg loadConfig
	flag.StringVar(&cfg.addr, "addr", "", "wbserved address (empty = self-hosted in-process server)")
	flag.IntVar(&cfg.sessions, "n", 64, "concurrent sessions (chaos lanes)")
	flag.IntVar(&cfg.workers, "workers", 0, "replay worker pool size (0 = one per session)")
	flag.Float64Var(&cfg.rate, "rate", 100, "tag bit rate in bits/s")
	flag.Float64Var(&cfg.start, "start", 1.0, "transmission start time in seconds")
	flag.IntVar(&cfg.payload, "payload", 0, "payload bits (required)")
	flag.StringVar(&cfg.mode, "mode", "csi", "csi or rssi")
	flag.StringVar(&cfg.chaos, "chaos", "", "wire fault spec: profile name (wire-flaky) or inline schedule")
	flag.Int64Var(&cfg.seed, "seed", 1, "chaos plan seed")
	flag.Float64Var(&cfg.chaosBPS, "chaos-bps", 0, "chaos proxy bytes per schedule second (0 = default)")
	flag.StringVar(&cfg.metrics, "metrics", "", "write a deterministic metrics JSON snapshot to this file")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbload:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := run(in, os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "wbload:", err)
		os.Exit(1)
	}
}

// run replays the trace from in over cfg.sessions streams and fails
// unless every stream's decode matches the local batch decode — with or
// without the chaos proxy in the path.
func run(in io.Reader, w io.Writer, cfg loadConfig) error {
	_, err := runLoad(in, w, cfg)
	return err
}

// runLoad is run's core, returning the per-lane replay stats so tests
// can assert per-stream properties (every lane cut at least once under
// wire-flaky, resume counts, ...).
func runLoad(in io.Reader, w io.Writer, cfg loadConfig) ([]serve.ReplayStats, error) {
	if cfg.payload <= 0 {
		return nil, fmt.Errorf("-payload is required (the expected payload length in bits)")
	}
	if cfg.sessions <= 0 {
		return nil, fmt.Errorf("-n must be positive, got %d", cfg.sessions)
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = cfg.sessions
	}
	var smode uplink.StreamMode
	switch cfg.mode {
	case "csi":
		smode = uplink.StreamCSI
	case "rssi":
		smode = uplink.StreamRSSI
	default:
		return nil, fmt.Errorf("unknown mode %q (want csi or rssi)", cfg.mode)
	}
	sched, err := faults.ParseSpec(cfg.chaos)
	if err != nil {
		return nil, err
	}
	tr, err := tracecsv.ReadTrace(in)
	if err != nil {
		return nil, fmt.Errorf("reading trace: %w", err)
	}
	series := &tr.Series
	if series.Len() == 0 {
		return nil, fmt.Errorf("trace has no measurements")
	}

	// The reference: what the batch decoder says about this capture.
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(1 / cfg.rate))
	if err != nil {
		return nil, err
	}
	var want *uplink.Result
	if smode == uplink.StreamRSSI {
		want, err = dec.DecodeRSSI(series, cfg.start, cfg.payload)
	} else {
		want, err = dec.DecodeCSI(series, cfg.start, cfg.payload)
	}
	if err != nil {
		return nil, fmt.Errorf("batch decode: %w", err)
	}
	wantBits := payloadString(want)

	params := serve.SessionParams{
		Mode:        smode,
		BitRate:     cfg.rate,
		Start:       cfg.start,
		PayloadLen:  cfg.payload,
		Antennas:    series.Antennas(),
		Subchannels: series.Subchannels(),
		Resumable:   !sched.Empty(),
	}

	// Self-host when no daemon was named. Chaos runs get generous
	// admission and parking headroom: a capacity eviction mid-run would
	// turn a deterministic fault plan into a lost checkpoint.
	addr := cfg.addr
	var selfDrain func() error
	if addr == "" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := serve.NewServer(serve.Config{
			MaxSessions: 2*cfg.sessions + 16,
			MaxParked:   2*cfg.sessions + 16,
			TokenSeed:   uint64(cfg.seed),
			Now:         time.Now,
		})
		go func() { _ = srv.ServeTCP(l) }()
		addr = l.Addr().String()
		selfDrain = func() error {
			_ = l.Close()
			return srv.Drain()
		}
		fmt.Fprintf(w, "wbload: self-hosted server on %s\n", addr)
	}

	// The chaos proxy sits between every stream and the server; each
	// stream is a lane, so its fault plan survives reconnects.
	var proxy *chaosproxy.Proxy
	if !sched.Empty() {
		proxy, err = chaosproxy.New(addr, chaosproxy.Config{
			Schedule:       sched,
			Seed:           cfg.seed,
			BytesPerSecond: cfg.chaosBPS,
		})
		if err != nil {
			return nil, err
		}
	}

	results := make([]error, cfg.sessions)
	stats := make([]serve.ReplayStats, cfg.sessions)
	lanes := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lane := range lanes {
				dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
				if proxy != nil {
					id := lane
					dial = func() (net.Conn, error) { return proxy.Dial(id) }
				}
				st, err := serve.Replay(dial, serve.ReplayOptions{
					Params:       params,
					Measurements: series.Measurements,
				})
				stats[lane] = st
				if err == nil {
					err = checkEquivalence(st, wantBits)
				}
				results[lane] = err
			}
		}()
	}
	for lane := 0; lane < cfg.sessions; lane++ {
		lanes <- lane
	}
	close(lanes)
	wg.Wait()
	if selfDrain != nil {
		if err := selfDrain(); err != nil {
			return nil, err
		}
	}

	failed := 0
	var attempts, resumes, cuts, bits int
	for i, err := range results {
		attempts += stats[i].Attempts
		resumes += stats[i].Resumes
		cuts += stats[i].Cuts
		bits += len(stats[i].Bits)
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(w, "wbload: session %d: %v\n", i, err)
			}
		}
	}
	if proxy != nil {
		fmt.Fprintf(w, "wbload: chaos %q seed %d: %d attempts, %d resumes, %d cuts across %d lanes\n",
			cfg.chaos, cfg.seed, attempts, resumes, cuts, cfg.sessions)
	}
	fmt.Fprintf(w, "wbload: %d/%d sessions byte-identical to batch (%d payload bits, %d measurements each)\n",
		cfg.sessions-failed, cfg.sessions, cfg.payload, series.Len())
	if cfg.metrics != "" {
		if err := writeMetrics(cfg.metrics, cfg.sessions, failed, attempts, resumes, cuts, bits, proxy); err != nil {
			return nil, err
		}
	}
	if failed > 0 {
		return nil, fmt.Errorf("%d of %d sessions diverged from the batch decode", failed, cfg.sessions)
	}
	return stats, nil
}

// checkEquivalence verifies one stream's outcome against the batch
// reference: the done line's payload and the streamed bit lines must
// both be byte-identical.
func checkEquivalence(st serve.ReplayStats, wantBits string) error {
	if st.Done.Kind != serve.RespDone {
		return fmt.Errorf("stream ended without a done line (kind %d)", st.Done.Kind)
	}
	if st.Done.Bits != wantBits {
		return fmt.Errorf("done bits %s, batch decoded %s", st.Done.Bits, wantBits)
	}
	streamed := bitString(st.Bits)
	if streamed != wantBits {
		return fmt.Errorf("streamed bits %s (%d lines), batch decoded %s",
			streamed, len(st.Bits), wantBits)
	}
	return nil
}

// writeMetrics snapshots the run's deterministic counters: replay
// attempts/resumes/cuts and the proxy's planned/executed fault events
// are all per-lane functions of (seed, spec, trace), so the JSON is
// byte-identical across runs and worker counts. Time-driven server
// counters (watchdog scans, drain seconds) are deliberately excluded.
func writeMetrics(path string, lanes, failed, attempts, resumes, cuts, bits int, proxy *chaosproxy.Proxy) error {
	reg := obs.NewRegistry()
	reg.Counter("wbload.lanes").Add(int64(lanes))
	reg.Counter("wbload.failed").Add(int64(failed))
	reg.Counter("wbload.attempts").Add(int64(attempts))
	reg.Counter("wbload.resumes").Add(int64(resumes))
	reg.Counter("wbload.cuts").Add(int64(cuts))
	reg.Counter("wbload.bits").Add(int64(bits))
	if proxy != nil {
		st := proxy.Stats()
		reg.Counter("chaos.lanes").Add(st.Lanes)
		reg.Counter("chaos.conns").Add(st.Conns)
		reg.Counter("chaos.cuts.planned").Add(st.CutsPlanned)
		reg.Counter("chaos.cuts.executed").Add(st.CutsExecuted)
		reg.Counter("chaos.corrupt.planned").Add(st.CorruptPlanned)
		reg.Counter("chaos.corrupt.executed").Add(st.CorruptDone)
		reg.Counter("chaos.stalls.planned").Add(st.StallsPlanned)
		reg.Counter("chaos.stalls.executed").Add(st.StallsExecuted)
		reg.Counter("chaos.splits.planned").Add(st.SplitsPlanned)
		reg.Counter("chaos.splits.executed").Add(st.SplitsExecuted)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// bitString renders streamed bit decisions the way the done line does.
func bitString(bits []uplink.BitDecision) string {
	var sb strings.Builder
	for _, b := range bits {
		if b.Bit {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// payloadString renders the batch payload the way the done line does.
func payloadString(res *uplink.Result) string {
	var sb strings.Builder
	for _, b := range res.Payload {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
