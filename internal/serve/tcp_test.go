package serve_test

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/csi"
	"repro/internal/serve"
	"repro/internal/uplink"
)

// startTCP brings up a server on a loopback listener and tears both down
// with the test.
func startTCP(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(cfg)
	go func() {
		if err := srv.ServeTCP(l); err != nil {
			t.Errorf("ServeTCP: %v", err)
		}
	}()
	t.Cleanup(func() {
		_ = l.Close()
		_ = srv.Drain()
	})
	return srv, l.Addr().String()
}

// clientResult is what one protocol exchange produced.
type clientResult struct {
	bits  []uplink.BitDecision
	done  serve.Response
	final bool // a done or error line arrived
}

// runClient streams a capture over one connection and collects the
// responses. A nil series sends hello only.
func runClient(t *testing.T, addr string, p serve.SessionParams, series *csi.Series, flush bool) (clientResult, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	return speak(conn, p, series, flush)
}

// encoder formats the i-th measurement of a stream as one request.
type encoder func(dst []byte, i int, m csi.Measurement) []byte

// textLine sends every measurement as an m line.
func textLine(dst []byte, _ int, m csi.Measurement) []byte {
	return append(serve.AppendMeasurement(dst, m), '\n')
}

// speak runs the client side of the protocol on an open connection,
// sending measurements as m lines.
func speak(conn net.Conn, p serve.SessionParams, series *csi.Series, flush bool) (clientResult, error) {
	return speakWith(conn, p, series, flush, textLine)
}

// speakWith is speak with a chosen request encoding.
func speakWith(conn net.Conn, p serve.SessionParams, series *csi.Series, flush bool, enc encoder) (clientResult, error) {
	var out clientResult
	buf := serve.AppendHello(nil, p)
	buf = append(buf, '\n')
	if _, err := conn.Write(buf); err != nil {
		return out, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		return out, fmt.Errorf("no response to hello: %v", sc.Err())
	}
	r, err := serve.ParseResponse(sc.Bytes())
	if err != nil {
		return out, err
	}
	if r.Kind != serve.RespOK {
		return out, fmt.Errorf("hello answered with %q", r.Reason)
	}
	if series != nil {
		for i, m := range series.Measurements {
			buf = enc(buf[:0], i, m)
			if _, err := conn.Write(buf); err != nil {
				return out, fmt.Errorf("measurement write: %w", err)
			}
		}
	}
	if flush {
		if _, err := conn.Write([]byte("flush\n")); err != nil {
			return out, fmt.Errorf("flush write: %w", err)
		}
	}
	for sc.Scan() {
		r, err := serve.ParseResponse(sc.Bytes())
		if err != nil {
			return out, err
		}
		switch r.Kind {
		case serve.RespBit:
			out.bits = append(out.bits, r.Bit)
		case serve.RespDone, serve.RespError:
			out.done = r
			out.final = true
			return out, nil
		default:
			return out, fmt.Errorf("unexpected mid-session response kind %d", r.Kind)
		}
	}
	return out, fmt.Errorf("connection ended without a final line: %v", sc.Err())
}

// payloadString renders a batch result the way the done line does.
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

// TestTCPSessionsMatchBatch64 is the load acceptance criterion: 64
// concurrent line-protocol sessions, each byte-identical to the batch
// decode of its capture.
func TestTCPSessionsMatchBatch64(t *testing.T) {
	const n = 64
	payloadLen := 12
	// Four distinct captures cycled across the fleet keep synthesis fast
	// while still decoding different payloads side by side.
	type capture struct {
		series *csi.Series
		want   *uplink.Result
	}
	caps := make([]capture, 4)
	for i := range caps {
		series := synthSeries(t, randomPayload(payloadLen, int64(100+i)), int64(100+i))
		caps[i] = capture{series: series, want: batchDecode(t, series, payloadLen)}
	}
	srv, addr := startTCP(t, serve.Config{MaxSessions: n, SessionBuffer: 64})

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := caps[i%len(caps)]
			got, err := runClient(t, addr, testParams(payloadLen), c.series, true)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if got.done.Kind != serve.RespDone {
				t.Errorf("client %d: final line was an error: %s", i, got.done.Reason)
				return
			}
			want := payloadString(c.want)
			if got.done.Bits != want {
				t.Errorf("client %d: done bits %s, batch decoded %s", i, got.done.Bits, want)
			}
			if len(got.bits) != payloadLen {
				t.Errorf("client %d: %d bit lines, want %d", i, len(got.bits), payloadLen)
				return
			}
			for _, b := range got.bits {
				if b.Bit != (want[b.Index] == '1') {
					t.Errorf("client %d: streamed bit %d disagrees with batch", i, b.Index)
				}
			}
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Accepted != n || st.Completed != n {
		t.Errorf("stats = %+v, want %d accepted and completed", st, n)
	}
	if st.BitsServed != int64(n*payloadLen) {
		t.Errorf("BitsServed = %d, want %d", st.BitsServed, n*payloadLen)
	}
}

// TestTCPOverloadReject pins wire-level admission: the session past
// MaxSessions gets an explicit reject line, not a hang.
func TestTCPOverloadReject(t *testing.T) {
	_, addr := startTCP(t, serve.Config{MaxSessions: 1})
	holder, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = holder.Close() }()
	line := append(serve.AppendHello(nil, testParams(8)), '\n')
	if _, err := holder.Write(line); err != nil {
		t.Fatal(err)
	}
	hsc := bufio.NewScanner(holder)
	if !hsc.Scan() {
		t.Fatal("no hello response")
	}
	if r, err := serve.ParseResponse(hsc.Bytes()); err != nil || r.Kind != serve.RespOK {
		t.Fatalf("holder hello: %+v, %v", r, err)
	}

	if _, err := runClient(t, addr, testParams(8), nil, false); err == nil ||
		!strings.Contains(err.Error(), "capacity") {
		t.Errorf("second session = %v, want a capacity reject", err)
	}

	// Malformed hellos are also explicit rejects.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte("hello wbserve/1 dsss 100 1 8 2 4\n")); err != nil {
		t.Fatal(err)
	}
	csc := bufio.NewScanner(conn)
	if !csc.Scan() {
		t.Fatal("no response to malformed hello")
	}
	if r, err := serve.ParseResponse(csc.Bytes()); err != nil || r.Kind != serve.RespReject {
		t.Errorf("malformed hello answered %+v, %v", r, err)
	}
}

// TestTCPMalformedLinePoisonsOnlyThatSession runs a well-formed client
// concurrently with one that sends garbage mid-stream.
func TestTCPMalformedLinePoisonsOnlyThatSession(t *testing.T) {
	payloadLen := 12
	series := synthSeries(t, randomPayload(payloadLen, 55), 55)
	want := batchDecode(t, series, payloadLen)
	srv, addr := startTCP(t, serve.Config{})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		got, err := runClient(t, addr, testParams(payloadLen), series, true)
		if err != nil {
			t.Errorf("good client: %v", err)
			return
		}
		if got.done.Kind != serve.RespDone || got.done.Bits != payloadString(want) {
			t.Errorf("good client decoded %+v next to a poisoned neighbor", got.done)
		}
	}()
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer func() { _ = conn.Close() }()
		hello := append(serve.AppendHello(nil, testParams(payloadLen)), '\n')
		if _, err := conn.Write(hello); err != nil {
			t.Error(err)
			return
		}
		sc := bufio.NewScanner(conn)
		if !sc.Scan() {
			t.Error("no hello response")
			return
		}
		if _, err := conn.Write([]byte("m 1 not-a-number\n")); err != nil {
			t.Error(err)
			return
		}
		sawError := false
		for sc.Scan() {
			if r, err := serve.ParseResponse(sc.Bytes()); err == nil && r.Kind == serve.RespError {
				sawError = true
			}
		}
		if !sawError {
			t.Error("malformed line produced no error response")
		}
	}()
	wg.Wait()
	if st := srv.Stats(); st.Completed < 1 {
		t.Errorf("stats = %+v, want at least the good session completed", st)
	}
}

// TestTCPIdleTimeoutFlushes pins the idle deadline: a client that goes
// silent mid-frame still gets the salvaged decode, then the connection
// closes.
func TestTCPIdleTimeoutFlushes(t *testing.T) {
	payloadLen := 8
	series := synthSeries(t, randomPayload(payloadLen, 66), 66)
	_, addr := startTCP(t, serve.Config{
		IdleTimeout: 100 * time.Millisecond,
		Now:         time.Now,
	})
	half := &csi.Series{Measurements: series.Measurements[:series.Len()/2]}
	// No flush: the server's idle deadline must end the session for us.
	got, err := runClient(t, addr, testParams(payloadLen), half, false)
	if err != nil {
		t.Fatalf("silent client: %v", err)
	}
	if !got.final {
		t.Fatal("idle session ended without a final line")
	}
}

// TestTCPDrainUnderLoad drains while clients are mid-stream: every
// session must still get a final line and Drain must come back clean
// within its deadline.
func TestTCPDrainUnderLoad(t *testing.T) {
	const n = 8
	payloadLen := 12
	series := synthSeries(t, randomPayload(payloadLen, 77), 77)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{MaxSessions: n, DrainTimeout: 5 * time.Second})
	go func() { _ = srv.ServeTCP(l) }()

	started := make(chan struct{}, n)
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			// Signal readiness on every path so the drain never waits on
			// a client that failed to start.
			ready := false
			defer func() {
				if !ready {
					started <- struct{}{}
				}
			}()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				results <- err
				return
			}
			defer func() { _ = conn.Close() }()
			hello := append(serve.AppendHello(nil, testParams(payloadLen)), '\n')
			if _, err := conn.Write(hello); err != nil {
				results <- err
				return
			}
			sc := bufio.NewScanner(conn)
			if !sc.Scan() {
				results <- fmt.Errorf("no hello response")
				return
			}
			ready = true
			started <- struct{}{}
			// Stream slowly and forever; the drain interrupts us.
			var buf []byte
			i := 0
			for {
				m := series.Measurements[i%series.Len()]
				m.Timestamp = float64(i) * 0.001
				buf = serve.AppendMeasurement(buf[:0], m)
				buf = append(buf, '\n')
				if _, err := conn.Write(buf); err != nil {
					break // server stopped reading: drain reached us
				}
				i++
				time.Sleep(time.Millisecond)
			}
			// The final line must already be in flight or on the wire.
			for sc.Scan() {
				if r, err := serve.ParseResponse(sc.Bytes()); err == nil &&
					(r.Kind == serve.RespDone || r.Kind == serve.RespError) {
					results <- nil
					return
				}
			}
			results <- fmt.Errorf("drained session got no final line")
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	_ = l.Close()
	if err := srv.Drain(); err != nil {
		t.Errorf("Drain under load: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.Accepted != n {
		t.Errorf("accepted %d sessions, want %d", st.Accepted, n)
	}
	if st.Aborted != 0 {
		t.Errorf("drain aborted %d sessions; want graceful completion", st.Aborted)
	}
}

// checkAgainstBatch asserts a session's streamed bits and done line match
// the batch decode exactly.
func checkAgainstBatch(t *testing.T, who string, bits []uplink.BitDecision, done serve.Response, want *uplink.Result) {
	t.Helper()
	if done.Kind != serve.RespDone {
		t.Errorf("%s: final line was an error: %s", who, done.Reason)
		return
	}
	wantBits := payloadString(want)
	if done.Bits != wantBits {
		t.Errorf("%s: done bits %s, batch decoded %s", who, done.Bits, wantBits)
	}
	if math.Float64bits(done.Corr) != math.Float64bits(want.PreambleCorrelation) ||
		math.Float64bits(done.MPB) != math.Float64bits(want.MeasurementsPerBit) {
		t.Errorf("%s: done corr=%v mpb=%v, batch corr=%v mpb=%v",
			who, done.Corr, done.MPB, want.PreambleCorrelation, want.MeasurementsPerBit)
	}
	if len(bits) != len(wantBits) {
		t.Errorf("%s: %d bit lines, want %d", who, len(bits), len(wantBits))
		return
	}
	for i, b := range bits {
		if b.Index != i || b.Bit != (wantBits[i] == '1') {
			t.Errorf("%s: bit line %d = %+v disagrees with batch", who, i, b)
		}
	}
}

// TestTCPTextAndRecordClientsMatchBatch pins the two request encodings
// to one result: a text-only client (AppendHello + AppendMeasurement),
// a Replay client (binary records) and a client that alternates the two
// within one session all get the batch decode's bits.
func TestTCPTextAndRecordClientsMatchBatch(t *testing.T) {
	payloadLen := 12
	series := synthSeries(t, randomPayload(payloadLen, 88), 88)
	want := batchDecode(t, series, payloadLen)
	_, addr := startTCP(t, serve.Config{})

	got, err := runClient(t, addr, testParams(payloadLen), series, true)
	if err != nil {
		t.Fatalf("text client: %v", err)
	}
	checkAgainstBatch(t, "text client", got.bits, got.done, want)

	st, err := serve.Replay(func() (net.Conn, error) { return net.Dial("tcp", addr) },
		serve.ReplayOptions{Params: testParams(payloadLen), Measurements: series.Measurements})
	if err != nil {
		t.Fatalf("record client: %v", err)
	}
	checkAgainstBatch(t, "record client", st.Bits, st.Done, want)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	mixed := func(dst []byte, i int, m csi.Measurement) []byte {
		if i%3 == 0 {
			return textLine(dst, i, m)
		}
		return serve.AppendRecord(dst, m)
	}
	got, err = speakWith(conn, testParams(payloadLen), series, true, mixed)
	if err != nil {
		t.Fatalf("mixed client: %v", err)
	}
	checkAgainstBatch(t, "mixed client", got.bits, got.done, want)
}

// TestTCPRecordCutAtEveryOffset cuts a resumable session at every byte
// offset of one in-frame record. The server must drop the partial record
// unparsed — the resume acknowledgment reports exactly the complete
// records as consumed — and the resumed session must still decode
// byte-identical to batch.
func TestTCPRecordCutAtEveryOffset(t *testing.T) {
	payloadLen := 12
	series := synthSeries(t, randomPayload(payloadLen, 89), 89)
	want := batchDecode(t, series, payloadLen)
	p := resumableParams(payloadLen)
	recLen := serve.RecordSize(p.Antennas, p.Subchannels)
	// Cut inside the frame's preamble: a wrongly pushed measurement there
	// would move the decode, and no bit has been emitted yet.
	k := 0
	for k < series.Len() && series.Measurements[k].Timestamp < testStart+5*testBitDur {
		k++
	}
	srv, addr := startTCP(t, serve.Config{TokenSeed: 5})

	var head []byte
	for _, m := range series.Measurements[:k] {
		head = serve.AppendRecord(head, m)
	}
	cutRec := serve.AppendRecord(nil, series.Measurements[k])
	for off := 0; off < recLen; off++ {
		// First connection: hello, k complete records, then off bytes of
		// record k, then a clean half-close.
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		ack := helloAck(t, conn, br, append(serve.AppendHello(nil, p), '\n'))
		if ack.Token == "" || ack.Seq != 0 {
			t.Fatalf("offset %d: hello acknowledged with %+v", off, ack)
		}
		req := append(append([]byte(nil), head...), cutRec[:off]...)
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		if rest, _ := io.ReadAll(br); len(rest) != 0 {
			t.Fatalf("offset %d: server answered a cut mid-preamble with %q", off, rest)
		}
		_ = conn.Close()

		// Resume: the acknowledged cursor counts only complete records.
		conn, err = net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		br = bufio.NewReader(conn)
		ack = helloAck(t, conn, br, append(serve.AppendResume(nil, ack.Token, 0), '\n'))
		if ack.Seq != int64(k) {
			t.Fatalf("offset %d: resume acknowledged seq=%d, want the %d complete records", off, ack.Seq, k)
		}
		var tail []byte
		for _, m := range series.Measurements[ack.Seq:] {
			tail = serve.AppendRecord(tail, m)
		}
		tail = append(tail, "flush\n"...)
		if _, err := conn.Write(tail); err != nil {
			t.Fatal(err)
		}
		var bits []uplink.BitDecision
		var done serve.Response
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("offset %d: resumed session ended without a final line: %v", off, err)
			}
			r, err := serve.ParseResponse(line[:len(line)-1])
			if err != nil {
				t.Fatal(err)
			}
			if r.Kind == serve.RespBit {
				bits = append(bits, r.Bit)
				continue
			}
			done = r
			break
		}
		_ = conn.Close()
		checkAgainstBatch(t, fmt.Sprintf("cut at offset %d", off), bits, done, want)
	}
	if got, wantN := srv.Stats().Measurements, int64(recLen*series.Len()); got != wantN {
		t.Errorf("server accepted %d measurements over %d sessions of %d, want %d",
			got, recLen, series.Len(), wantN)
	}
}

// helloAck sends one hello or resume line and returns the ok it draws.
func helloAck(t *testing.T, conn net.Conn, br *bufio.Reader, line []byte) serve.Response {
	t.Helper()
	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}
	resp, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no acknowledgment: %v", err)
	}
	r, err := serve.ParseResponse(resp[:len(resp)-1])
	if err != nil || r.Kind != serve.RespOK {
		t.Fatalf("acknowledgment %q: %v", resp, err)
	}
	return r
}

// TestReplayRefusesMisshapedMeasurement pins the client-side guard:
// records carry no length, so a measurement that does not match the
// hello's shape is refused before any connection opens.
func TestReplayRefusesMisshapedMeasurement(t *testing.T) {
	payloadLen := 8
	series := synthSeries(t, randomPayload(payloadLen, 90), 90)
	ms := append([]csi.Measurement(nil), series.Measurements...)
	ms[3].RSSI = ms[3].RSSI[:1]
	dials := 0
	_, err := serve.Replay(func() (net.Conn, error) {
		dials++
		return nil, fmt.Errorf("unreachable")
	}, serve.ReplayOptions{Params: testParams(payloadLen), Measurements: ms})
	if err == nil || !strings.Contains(err.Error(), "measurement 3") {
		t.Errorf("Replay of a mis-shaped stream = %v, want a measurement 3 shape error", err)
	}
	if dials != 0 {
		t.Errorf("Replay dialed %d times for a stream it must refuse", dials)
	}
}

// TestTCPRecordLargerThanReadBuffer sends records of the widest shapes
// the hello admits, larger than the connection's 64 KiB read buffer:
// the server must still take each one whole.
func TestTCPRecordLargerThanReadBuffer(t *testing.T) {
	p := testParams(8)
	p.Antennas, p.Subchannels = 8, 1024
	if size := serve.RecordSize(p.Antennas, p.Subchannels); size <= 64<<10 {
		t.Fatalf("record of %d bytes fits the read buffer; widen the shape", size)
	}
	srv, addr := startTCP(t, serve.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	helloAck(t, conn, br, append(serve.AppendHello(nil, p), '\n'))
	var req []byte
	const n = 3
	for i := 0; i < n; i++ {
		m := csi.Measurement{Timestamp: 0.1 * float64(i+1), RSSI: make([]float64, p.Antennas)}
		for a := 0; a < p.Antennas; a++ {
			m.CSI = append(m.CSI, make([]float64, p.Subchannels))
		}
		req = serve.AppendRecord(req, m)
	}
	req = append(req, "flush\n"...)
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	// Every measurement precedes the frame, so the final line may be a
	// done or an error; either way it comes after all three pushes.
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("no final line: %v", err)
	}
	if got := srv.Stats().Measurements; got != n {
		t.Errorf("server accepted %d measurements, want %d", got, n)
	}
}
