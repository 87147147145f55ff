package serve

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"repro/internal/csi"
	"repro/internal/uplink"
)

// Replay client: the wbserve/1 consumer side, shared by cmd/wbload and
// the chaos tests. It drives one stream end to end, sending every
// measurement as a binary record (see wire.go), and — for a resumable
// session — survives any number of connection cuts by reconnecting with
// "resume <token> <bits-received>" and continuing from the server's
// acknowledged cursor. The resulting bit sequence is byte-identical to
// an uninterrupted run: the server replays exactly the suffix this
// client did not receive, and neither side counts a truncated request
// or response (a record cut mid-way is re-sent from the server's seq=
// cursor, a line cut mid-way is re-received on resume).

// Dialer opens one transport to the server; Replay re-invokes it on
// every reconnect.
type Dialer func() (net.Conn, error)

// DefaultMaxAttempts caps Replay's connection attempts.
const DefaultMaxAttempts = 64

// ReplayOptions configures one Replay run.
type ReplayOptions struct {
	// Params opens the session. Set Params.Resumable for cut survival.
	Params SessionParams
	// Measurements is the full stream to deliver, in order. Each goes out
	// as one binary record, so each must have the shape Params declares:
	// Params.Antennas RSSI values and, in CSI mode, Params.Antennas rows
	// of Params.Subchannels values.
	Measurements []csi.Measurement
	// MaxAttempts caps connection attempts (first try plus reconnects).
	// Zero means DefaultMaxAttempts.
	MaxAttempts int
	// Sleep, when non-nil, honors server retry-after hints on rejection.
	// Nil ignores the hint (deterministic tests).
	Sleep func(time.Duration)
}

// ReplayStats is the outcome of a Replay run.
type ReplayStats struct {
	// Attempts counts connections dialed, Resumes how many of those
	// re-attached with a resume line, Cuts how many attempts died before
	// the final result.
	Attempts, Resumes, Cuts int
	// Bits are the decoded bit lines in arrival order, replays already
	// de-duplicated by the resume cursor.
	Bits []uplink.BitDecision
	// Done is the final done/error response.
	Done Response
	// Rejected reports the run ended on an admission reject; RetryAfter
	// carries the server's backoff hint in seconds (0 if none).
	Rejected   bool
	RetryAfter float64
}

// Replay drives one stream against a server until it yields a final
// result or the attempt budget runs out. Each attempt sends the hello
// (or resume) line, one binary record per measurement not yet consumed,
// then the flush line. Note the write-then-read phasing: the full
// measurement stream and the flush go out before responses are drained,
// so the stream's response volume must fit the transport buffers (fine
// for payload-scale streams; a bulk transfer would need a reader
// goroutine).
func Replay(dial Dialer, opt ReplayOptions) (ReplayStats, error) {
	var st ReplayStats
	maxAttempts := opt.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	// Records carry no length, so a mis-shaped measurement would desync
	// the stream; refuse it before opening a session.
	want := RecordSize(opt.Params.Antennas, opt.Params.Subchannels)
	for i := range opt.Measurements {
		if recordSize(&opt.Measurements[i]) != want {
			return st, fmt.Errorf("serve: measurement %d does not have the %d×%d shape the hello declares",
				i, opt.Params.Antennas, opt.Params.Subchannels)
		}
	}
	token := ""
	var lastErr error
	for st.Attempts < maxAttempts {
		st.Attempts++
		conn, err := dial()
		if err != nil {
			st.Cuts++
			lastErr = err
			if opt.Params.Resumable {
				continue
			}
			return st, err
		}
		done, err := replayAttempt(conn, opt, &st, &token)
		_ = conn.Close()
		if done {
			return st, err
		}
		lastErr = err
		if !opt.Params.Resumable {
			return st, err
		}
	}
	return st, fmt.Errorf("serve: replay gave up after %d attempts (%d bits in hand): %w",
		st.Attempts, len(st.Bits), lastErr)
}

// replayAttempt runs one connection's worth of the protocol. It returns
// done=true when the stream reached a terminal outcome (result, session
// error, or rejection — err says which); done=false means the attempt
// was cut and a resumable caller should reconnect.
func replayAttempt(conn net.Conn, opt ReplayOptions, st *ReplayStats, token *string) (bool, error) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var req []byte
	if *token != "" {
		st.Resumes++
		req = AppendResume(req, *token, len(st.Bits))
	} else {
		req = AppendHello(req, opt.Params)
	}
	req = append(req, '\n')
	if _, err := conn.Write(req); err != nil {
		st.Cuts++
		return false, err
	}
	line, err := readLine(br)
	if err != nil {
		st.Cuts++
		return false, err
	}
	ack, err := ParseResponse(line)
	if err != nil {
		st.Cuts++
		return false, err
	}
	switch ack.Kind {
	case RespOK:
	case RespReject:
		st.Rejected = true
		st.RetryAfter = ack.RetryAfter
		if ack.RetryAfter > 0 && opt.Sleep != nil {
			opt.Sleep(time.Duration(ack.RetryAfter * float64(time.Second)))
		}
		return true, fmt.Errorf("serve: rejected: %s", ack.Reason)
	default:
		return true, fmt.Errorf("serve: unexpected acknowledgment %q", line)
	}
	if opt.Params.Resumable {
		if len(ack.Token) != tokenLen {
			// The ok line must carry a full token; anything else means the
			// acknowledgment itself was mangled — treat as a cut.
			st.Cuts++
			return false, fmt.Errorf("serve: acknowledgment carried no resume token")
		}
		*token = ack.Token
	}
	if !ack.Final {
		skip := int(ack.Seq)
		if skip > len(opt.Measurements) {
			skip = len(opt.Measurements)
		}
		bw := bufio.NewWriterSize(conn, 64<<10)
		var rec []byte
		werr := error(nil)
		for i := skip; i < len(opt.Measurements); i++ {
			rec = AppendRecord(rec[:0], opt.Measurements[i])
			if _, werr = bw.Write(rec); werr != nil {
				break
			}
		}
		if werr == nil {
			_, werr = bw.WriteString("flush\n")
		}
		if werr == nil {
			werr = bw.Flush()
		}
		if werr != nil {
			st.Cuts++
			return false, werr
		}
	}
	for {
		line, err := readLine(br)
		if err != nil {
			st.Cuts++
			return false, err
		}
		r, err := ParseResponse(line)
		if err != nil {
			st.Cuts++
			return false, err
		}
		switch r.Kind {
		case RespBit:
			st.Bits = append(st.Bits, r.Bit)
		case RespDone:
			st.Done = r
			return true, nil
		case RespError:
			st.Done = r
			return true, fmt.Errorf("serve: session failed: %s", r.Reason)
		default:
			return true, fmt.Errorf("serve: unexpected response %q", line)
		}
	}
}

// readLine returns one complete newline-terminated response without the
// terminator. A partial line at EOF is reported as an error and its
// bytes dropped, never parsed: under chaos a connection dies mid-line,
// and trusting a truncated "bit ..." prefix would record a wrong bit.
// The resume cursor counts only complete lines, so a dropped fragment
// is simply re-received after reconnect.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}
