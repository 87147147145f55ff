package main

//wblint:file-ignore DT001 the transport meter times blocked writes and reply arrival on the wall clock; benchmark output only

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// meteredConn is the client end of one TCP session, wrapped for the
// transport metrics: bytes each way, time spent inside Write (blocked on
// a full socket buffer, mostly) and when the first reply bytes arrived
// after the request stream began. It knows nothing of the wire format,
// so a codec change reaches the benchmark through serve.Replay without an
// edit here.
//
// A pump goroutine reads the socket as soon as bytes arrive and hands
// them on through a pipe. serve.Replay writes a whole stream before it
// reads, so without the pump the arrival of the first bit line would be
// invisible until the last measurement had gone out.
type meteredConn struct {
	net.Conn
	pr   *io.PipeReader
	done chan struct{} // closed when the pump has exited

	writes    atomic.Int64
	sent      atomic.Int64
	recv      atomic.Int64
	blockedNS atomic.Int64

	mu         sync.Mutex
	firstReply time.Time
}

// dialMetered connects to addr and starts the pump.
func dialMetered(addr string) (*meteredConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	pr, pw := io.Pipe()
	m := &meteredConn{Conn: c, pr: pr, done: make(chan struct{})}
	go m.pump(pw)
	return m, nil
}

func (m *meteredConn) pump(pw *io.PipeWriter) {
	defer close(m.done)
	buf := make([]byte, 32<<10)
	for {
		n, err := m.Conn.Read(buf)
		if n > 0 {
			now := time.Now()
			m.recv.Add(int64(n))
			// The first write is the hello; its acknowledgment arrives
			// before the client writes again. Anything that arrives once
			// the second write has begun is the session's reply proper.
			if m.writes.Load() >= 2 {
				m.mu.Lock()
				if m.firstReply.IsZero() {
					m.firstReply = now
				}
				m.mu.Unlock()
			}
			if _, werr := pw.Write(buf[:n]); werr != nil {
				return // the reader side closed
			}
		}
		if err != nil {
			_ = pw.CloseWithError(err)
			return
		}
	}
}

// Read returns bytes the pump has already taken off the socket.
func (m *meteredConn) Read(p []byte) (int, error) { return m.pr.Read(p) }

// Write counts bytes and the time the call took.
func (m *meteredConn) Write(p []byte) (int, error) {
	m.writes.Add(1)
	t0 := time.Now()
	n, err := m.Conn.Write(p)
	m.blockedNS.Add(int64(time.Since(t0)))
	m.sent.Add(int64(n))
	return n, err
}

// Close closes the socket and waits for the pump to exit.
func (m *meteredConn) Close() error {
	err := m.Conn.Close()
	_ = m.pr.Close()
	<-m.done
	return err
}

// firstReplyAt is when the first reply bytes after the request stream
// began arrived (zero if none did).
func (m *meteredConn) firstReplyAt() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firstReply
}

// tcpTotals accumulates the transport counters of many sessions.
type tcpTotals struct {
	sessions   int
	sent, recv int64
	blockedNS  int64
}

func (t *tcpTotals) add(m *meteredConn) {
	t.sessions++
	t.sent += m.sent.Load()
	t.recv += m.recv.Load()
	t.blockedNS += m.blockedNS.Load()
}

func (t *tcpTotals) merge(o tcpTotals) {
	t.sessions += o.sessions
	t.sent += o.sent
	t.recv += o.recv
	t.blockedNS += o.blockedNS
}
