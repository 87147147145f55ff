package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// daemon is one wbserved child process serving on a loopback port.
type daemon struct {
	cmd         *exec.Cmd
	addr        string
	metricsPath string
	log         *logWatch
	exited      chan struct{} // closed once Wait has returned
	waitErr     error
}

// daemonReport is what a stopped daemon leaves behind.
type daemonReport struct {
	metrics *obs.Snapshot
}

// startupTimeout bounds how long the daemon may take to listen.
const startupTimeout = 30 * time.Second

// startDaemon launches bin on an ephemeral loopback port and waits until
// it is listening. The child gets SIGKILL should this process die first,
// so an aborted run leaves no daemon behind.
func startDaemon(bin, dir string) (*daemon, error) {
	f, err := os.CreateTemp(dir, "wbserved-*.json")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return nil, err
	}
	d := &daemon{metricsPath: path, log: newLogWatch(), exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics", path)
	d.cmd.Stderr = d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-d.log.addr:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("wbserved exited before listening: %v: %s", d.waitErr, d.log.text())
	case <-time.After(startupTimeout):
		d.kill()
		return nil, fmt.Errorf("wbserved did not listen within %v: %s", startupTimeout, d.log.text())
	}
}

// pid is the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuSeconds is the daemon's CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) { return procCPUSeconds(d.pid()) }

// kill ends the daemon without a drain and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	_ = os.Remove(d.metricsPath)
}

// stop sends SIGTERM, waits for the graceful drain and collects the
// daemon's -metrics snapshot.
func (d *daemon) stop() (daemonReport, error) {
	var rep daemonReport
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return rep, fmt.Errorf("signalling wbserved: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(startupTimeout):
		d.kill()
		return rep, fmt.Errorf("wbserved did not drain within %v: %s", startupTimeout, d.log.text())
	}
	defer os.Remove(d.metricsPath)
	if d.waitErr != nil {
		return rep, fmt.Errorf("wbserved: %v: %s", d.waitErr, d.log.text())
	}
	raw, err := os.ReadFile(d.metricsPath)
	if err != nil {
		return rep, fmt.Errorf("reading wbserved metrics: %w", err)
	}
	rep.metrics = new(obs.Snapshot)
	if err := json.Unmarshal(raw, rep.metrics); err != nil {
		return rep, fmt.Errorf("parsing wbserved metrics: %w", err)
	}
	return rep, nil
}

// logWatch collects the daemon's stderr and picks the listening address
// out of its first log line.
type logWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	sent bool
	addr chan string
}

func newLogWatch() *logWatch { return &logWatch{addr: make(chan string, 1)} }

func (w *logWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const marker = "listening on "
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				w.addr <- rest[:j]
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *logWatch) text() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(w.buf.String())
}
