package serve

// The wire protocol: newline-delimited ASCII for every request and
// response, plus one fixed-size binary request form for measurements.
// Text floats are printed with strconv 'g'/-1 and records carry raw
// IEEE-754 bits, so every value round-trips exactly either way
// (byte-identical decode is an acceptance criterion, so the wire must not
// quantize).
//
//	client → server
//	  hello wbserve/1 <csi|rssi> <bitrate> <start> <payload-bits> <antennas> <subchannels> [prio=<0-9>] [resume=1]
//	  resume wbserve/1 <token> <bits-received>
//	  m <timestamp> <rssi per antenna ...> <csi antenna-major ...>
//	  <record>
//	  flush
//	server → client
//	  ok <session-id>                                      (plain session)
//	  ok <session-id> token=<16 hex> seq=<n> fin=<0|1>     (resumable session)
//	  reject [retry-after=<seconds>] <reason ...>
//	  bit <index> <0|1> <measurements>
//	  done <payload bitstring|-> corr=<f> mpb=<f>
//	  error <message ...>
//
// A <record> is the binary twin of an m line: the tag byte RecordTag
// (0xFB, which no text request can start with), then the little-endian
// float64 bits of the timestamp, the RSSI per antenna and the CSI
// antenna-major — RecordSize(antennas, subchannels) bytes, 753 for 3×30.
// The hello already fixes the shape, so a record has no length prefix
// and no terminator, and needs no negotiation: after the hello the
// server looks at the first byte of each request and takes the record
// path on the tag, the line path on anything else. A session may mix
// both forms. A record cut short by EOF or the idle deadline is dropped
// unparsed, exactly like a partial line.
//
// Resumable sessions (hello option resume=1) get a stable token on the
// ok line. After a cut the client reconnects and sends a resume line
// carrying the token and how many bit lines it actually received; the
// server re-attaches the parked session, replays only the missed bits,
// and reports seq= (measurements already consumed, so the client skips
// them) and fin= (the final result was already recorded; nothing more to
// send). All resumable ok fields are fixed-width (8-digit id, 16-hex
// token) so wire byte offsets stay reproducible under chaos schedules.
//
// The parse helpers here serve both sides: the TCP front end parses
// hello/m lines and records into preallocated shapes, and load clients
// (cmd/wbload) format requests with the Append helpers and parse
// responses with ParseResponse.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/csi"
	"repro/internal/uplink"
)

// helloMagic is the protocol version tag; bump on incompatible changes.
const helloMagic = "wbserve/1"

// fieldScanner iterates the space-separated tokens of one line without
// allocating.
type fieldScanner struct {
	b []byte
	i int
}

func (f *fieldScanner) next() ([]byte, bool) {
	for f.i < len(f.b) && f.b[f.i] == ' ' {
		f.i++
	}
	if f.i >= len(f.b) {
		return nil, false
	}
	j := f.i
	for j < len(f.b) && f.b[j] != ' ' {
		j++
	}
	tok := f.b[f.i:j]
	f.i = j
	return tok, true
}

// peek returns the next token without consuming it.
func (f *fieldScanner) peek() ([]byte, bool) {
	save := f.i
	tok, ok := f.next()
	f.i = save
	return tok, ok
}

// rest returns everything after the current position, trimmed of one
// leading space (for trailing free-text fields like reject reasons).
func (f *fieldScanner) rest() string {
	for f.i < len(f.b) && f.b[f.i] == ' ' {
		f.i++
	}
	return string(f.b[f.i:])
}

func (f *fieldScanner) float() (float64, error) {
	tok, ok := f.next()
	if !ok {
		return 0, fmt.Errorf("serve: line is missing a numeric field")
	}
	return strconv.ParseFloat(string(tok), 64)
}

func (f *fieldScanner) int() (int, error) {
	tok, ok := f.next()
	if !ok {
		return 0, fmt.Errorf("serve: line is missing an integer field")
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	return int(v), err
}

// ParseHello parses a session-opening line into its parameters.
func ParseHello(line []byte) (SessionParams, error) {
	var p SessionParams
	f := fieldScanner{b: line}
	if tok, ok := f.next(); !ok || string(tok) != "hello" {
		return p, fmt.Errorf("serve: expected a hello line, got %q", line)
	}
	if tok, ok := f.next(); !ok || string(tok) != helloMagic {
		return p, fmt.Errorf("serve: unsupported protocol %q (want %s)", tok, helloMagic)
	}
	mode, ok := f.next()
	if !ok {
		return p, fmt.Errorf("serve: hello is missing the mode")
	}
	switch string(mode) {
	case "csi":
		p.Mode = uplink.StreamCSI
	case "rssi":
		p.Mode = uplink.StreamRSSI
	default:
		return p, fmt.Errorf("serve: unknown mode %q", mode)
	}
	var err error
	if p.BitRate, err = f.float(); err != nil {
		return p, fmt.Errorf("serve: hello bit rate: %v", err)
	}
	if p.Start, err = f.float(); err != nil {
		return p, fmt.Errorf("serve: hello start: %v", err)
	}
	if p.PayloadLen, err = f.int(); err != nil {
		return p, fmt.Errorf("serve: hello payload length: %v", err)
	}
	if p.Antennas, err = f.int(); err != nil {
		return p, fmt.Errorf("serve: hello antennas: %v", err)
	}
	if p.Subchannels, err = f.int(); err != nil {
		return p, fmt.Errorf("serve: hello sub-channels: %v", err)
	}
	for {
		tok, ok := f.next()
		if !ok {
			break
		}
		s := string(tok)
		switch {
		case len(s) > 5 && s[:5] == "prio=":
			v, err := strconv.ParseInt(s[5:], 10, 64)
			if err != nil || v < 0 || v > 9 {
				return p, fmt.Errorf("serve: hello priority %q (want 0-9)", s[5:])
			}
			p.Priority = int(v)
		case s == "resume=1":
			p.Resumable = true
		case s == "resume=0":
			p.Resumable = false
		default:
			return p, fmt.Errorf("serve: trailing fields on hello line")
		}
	}
	return p, p.Validate()
}

// AppendHello formats the session-opening line (client side), without
// the trailing newline.
func AppendHello(dst []byte, p SessionParams) []byte {
	dst = append(dst, "hello "...)
	dst = append(dst, helloMagic...)
	dst = append(dst, ' ')
	if p.Mode == uplink.StreamRSSI {
		dst = append(dst, "rssi "...)
	} else {
		dst = append(dst, "csi "...)
	}
	dst = strconv.AppendFloat(dst, p.BitRate, 'g', -1, 64)
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, p.Start, 'g', -1, 64)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(p.PayloadLen), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(p.Antennas), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(p.Subchannels), 10)
	if p.Priority != 0 {
		dst = append(dst, " prio="...)
		dst = strconv.AppendInt(dst, int64(p.Priority), 10)
	}
	if p.Resumable {
		dst = append(dst, " resume=1"...)
	}
	return dst
}

// ParseResume parses a session-resuming line into its token and the
// number of bit lines the client already holds.
func ParseResume(line []byte) (token string, haveBits int, err error) {
	f := fieldScanner{b: line}
	if tok, ok := f.next(); !ok || string(tok) != "resume" {
		return "", 0, fmt.Errorf("serve: expected a resume line, got %q", line)
	}
	if tok, ok := f.next(); !ok || string(tok) != helloMagic {
		return "", 0, fmt.Errorf("serve: unsupported protocol %q (want %s)", tok, helloMagic)
	}
	tok, ok := f.next()
	if !ok {
		return "", 0, fmt.Errorf("serve: resume is missing the token")
	}
	if len(tok) != tokenLen {
		return "", 0, fmt.Errorf("serve: resume token must be %d hex digits", tokenLen)
	}
	for _, c := range tok {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return "", 0, fmt.Errorf("serve: resume token must be %d hex digits", tokenLen)
		}
	}
	token = string(tok)
	if haveBits, err = f.int(); err != nil {
		return "", 0, fmt.Errorf("serve: resume bits-received: %v", err)
	}
	if haveBits < 0 || haveBits > MaxPayloadLen {
		return "", 0, fmt.Errorf("serve: implausible resume bits-received %d", haveBits)
	}
	if _, extra := f.next(); extra {
		return "", 0, fmt.Errorf("serve: trailing fields on resume line")
	}
	return token, haveBits, nil
}

// AppendResume formats the session-resuming line (client side), without
// the trailing newline.
func AppendResume(dst []byte, token string, haveBits int) []byte {
	dst = append(dst, "resume "...)
	dst = append(dst, helloMagic...)
	dst = append(dst, ' ')
	dst = append(dst, token...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(haveBits), 10)
	return dst
}

// ParseMeasurement parses an m line into a preallocated measurement
// whose shape declares the expected field count (RSSI first, then CSI
// antenna-major). The measurement is overwritten in place.
func ParseMeasurement(line []byte, m *csi.Measurement) error {
	f := fieldScanner{b: line}
	if tok, ok := f.next(); !ok || string(tok) != "m" {
		return fmt.Errorf("serve: expected an m line, got %q", line)
	}
	var err error
	if m.Timestamp, err = f.float(); err != nil {
		return fmt.Errorf("serve: m timestamp: %v", err)
	}
	for a := range m.RSSI {
		if m.RSSI[a], err = f.float(); err != nil {
			return fmt.Errorf("serve: m rssi[%d]: %v", a, err)
		}
	}
	for a := range m.CSI {
		for k := range m.CSI[a] {
			if m.CSI[a][k], err = f.float(); err != nil {
				return fmt.Errorf("serve: m csi[%d][%d]: %v", a, k, err)
			}
		}
	}
	if _, extra := f.next(); extra {
		return fmt.Errorf("serve: m line has more fields than the declared shape")
	}
	return nil
}

// AppendMeasurement formats an m line (client side), without the
// trailing newline.
func AppendMeasurement(dst []byte, m csi.Measurement) []byte {
	dst = append(dst, 'm', ' ')
	dst = strconv.AppendFloat(dst, m.Timestamp, 'g', -1, 64)
	for _, v := range m.RSSI {
		dst = append(dst, ' ')
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	for _, row := range m.CSI {
		for _, v := range row {
			dst = append(dst, ' ')
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
	}
	return dst
}

// RecordTag opens a binary measurement record. Text requests are ASCII,
// so a non-ASCII first byte is unambiguous.
const RecordTag byte = 0xFB

// RecordSize is the byte length of one record for the given shape: the
// tag plus one float64 per timestamp, RSSI and CSI value.
func RecordSize(antennas, subchannels int) int {
	return 1 + 8*(1+antennas+antennas*subchannels)
}

// recordSize is RecordSize for m's shape.
func recordSize(m *csi.Measurement) int {
	n := 1 + len(m.RSSI)
	for a := range m.CSI {
		n += len(m.CSI[a])
	}
	return 1 + 8*n
}

// AppendRecord formats m as a binary record (client side). With dst
// sized to RecordSize it does not allocate.
func AppendRecord(dst []byte, m csi.Measurement) []byte {
	n, size := len(dst), recordSize(&m)
	dst = slices.Grow(dst, size)[:n+size]
	b := dst[n:]
	b[0] = RecordTag
	binary.LittleEndian.PutUint64(b[1:], math.Float64bits(m.Timestamp))
	b = b[9:]
	for _, v := range m.RSSI {
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		b = b[8:]
	}
	for _, row := range m.CSI {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b, math.Float64bits(v))
			b = b[8:]
		}
	}
	return dst
}

// ParseRecord decodes one binary record into a preallocated measurement
// whose shape declares the expected length; rec must hold exactly one
// record. The measurement is overwritten in place.
func ParseRecord(rec []byte, m *csi.Measurement) error {
	if want := recordSize(m); len(rec) != want {
		return fmt.Errorf("serve: record is %d bytes, the declared shape needs %d", len(rec), want)
	}
	if rec[0] != RecordTag {
		return fmt.Errorf("serve: record tag %#x, want %#x", rec[0], RecordTag)
	}
	b := rec[1:]
	m.Timestamp = math.Float64frombits(binary.LittleEndian.Uint64(b))
	b = b[8:]
	for a := range m.RSSI {
		m.RSSI[a] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	for a := range m.CSI {
		row := m.CSI[a]
		for k := range row {
			row[k] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	return nil
}

// ResponseKind discriminates parsed server lines.
type ResponseKind int

// Response kinds.
const (
	// RespOK acknowledges a hello; ID carries the session id.
	RespOK ResponseKind = iota
	// RespReject refuses a hello; Reason says why.
	RespReject
	// RespBit delivers one decoded bit.
	RespBit
	// RespDone delivers the final result.
	RespDone
	// RespError delivers a session failure.
	RespError
)

// Response is one parsed server line (client side).
type Response struct {
	Kind ResponseKind
	// ID is the session id (RespOK).
	ID uint64
	// Token is the resume token (RespOK on a resumable session).
	Token string
	// Seq is the number of measurements the server already consumed
	// (RespOK on a resumable session; the client skips that many).
	Seq int64
	// Final reports that the session's result is already recorded and
	// will be replayed without further input (RespOK, fin=1).
	Final bool
	// RetryAfter is the machine-readable backoff hint in seconds
	// (RespReject under load; 0 when the server sent none).
	RetryAfter float64
	// Reason is the reject or error text.
	Reason string
	// Bit is the decoded bit (RespBit).
	Bit uplink.BitDecision
	// Bits is the final payload as a 0/1 string (RespDone; empty if the
	// decode produced no payload).
	Bits string
	// Corr and MPB are the final preamble correlation and mean
	// measurements per bit (RespDone).
	Corr, MPB float64
}

// ParseResponse parses one server line.
func ParseResponse(line []byte) (Response, error) {
	var r Response
	f := fieldScanner{b: line}
	kind, ok := f.next()
	if !ok {
		return r, fmt.Errorf("serve: empty response line")
	}
	var err error
	switch string(kind) {
	case "ok":
		r.Kind = RespOK
		tok, ok := f.next()
		if !ok {
			return r, fmt.Errorf("serve: ok line is missing the session id")
		}
		if r.ID, err = strconv.ParseUint(string(tok), 10, 64); err != nil {
			return r, err
		}
		for {
			tok, ok := f.next()
			if !ok {
				break
			}
			s := string(tok)
			switch {
			case len(s) > 6 && s[:6] == "token=":
				r.Token = s[6:]
			case len(s) > 4 && s[:4] == "seq=":
				r.Seq, err = strconv.ParseInt(s[4:], 10, 64)
			case s == "fin=0":
				r.Final = false
			case s == "fin=1":
				r.Final = true
			default:
				err = fmt.Errorf("serve: unknown ok field %q", s)
			}
			if err != nil {
				return r, err
			}
		}
		return r, nil
	case "reject":
		r.Kind = RespReject
		if tok, ok := f.peek(); ok {
			s := string(tok)
			if len(s) > 12 && s[:12] == "retry-after=" {
				if r.RetryAfter, err = strconv.ParseFloat(s[12:], 64); err != nil {
					return r, fmt.Errorf("serve: reject retry-after: %v", err)
				}
				f.next()
			}
		}
		r.Reason = f.rest()
		return r, nil
	case "error":
		r.Kind = RespError
		r.Reason = f.rest()
		return r, nil
	case "bit":
		r.Kind = RespBit
		if r.Bit.Index, err = f.int(); err != nil {
			return r, fmt.Errorf("serve: bit index: %v", err)
		}
		v, err := f.int()
		if err != nil {
			return r, fmt.Errorf("serve: bit value: %v", err)
		}
		r.Bit.Bit = v != 0
		if r.Bit.Measurements, err = f.int(); err != nil {
			return r, fmt.Errorf("serve: bit measurements: %v", err)
		}
		return r, nil
	case "done":
		r.Kind = RespDone
		bits, ok := f.next()
		if !ok {
			return r, fmt.Errorf("serve: done line is missing the payload")
		}
		if string(bits) != "-" {
			for _, c := range bits {
				if c != '0' && c != '1' {
					return r, fmt.Errorf("serve: done payload has a non-bit byte %q", c)
				}
			}
			r.Bits = string(bits)
		}
		for {
			tok, ok := f.next()
			if !ok {
				break
			}
			s := string(tok)
			switch {
			case len(s) > 5 && s[:5] == "corr=":
				r.Corr, err = strconv.ParseFloat(s[5:], 64)
			case len(s) > 4 && s[:4] == "mpb=":
				r.MPB, err = strconv.ParseFloat(s[4:], 64)
			default:
				err = fmt.Errorf("serve: unknown done field %q", s)
			}
			if err != nil {
				return r, err
			}
		}
		return r, nil
	}
	return r, fmt.Errorf("serve: unknown response line %q", line)
}
