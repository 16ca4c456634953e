package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/faqdb/faq/internal/server"
)

// Deadlines of the daemon's lifecycle.  A daemon that misses one is killed
// and the run fails with the tail of its stderr.
const (
	daemonBootTimeout  = 30 * time.Second
	daemonDrainTimeout = 30 * time.Second
)

// readyPoll is the start-up polling interval: fine enough that it adds
// little to setup_s, which is a few milliseconds when nothing is uploaded.
const readyPoll = 200 * time.Microsecond

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.  It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one faqd child process on 127.0.0.1 with its own fresh data
// directory.  kill is safe to call on every path and more than once.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	addr   string
	output tailBuffer
	done   chan struct{} // closed once Wait has returned
	err    error         // Wait's result, readable after done
	once   sync.Once
}

// startDaemon execs faqd with a fresh temp data directory under workdir,
// waits until it has written its address file and answers /healthz, and
// returns it.  On any failure the child is killed and its directory removed.
func startDaemon(ctx context.Context, bin, workdir string, procs int) (*daemon, error) {
	dir, err := os.MkdirTemp(workdir, "faqd-run-")
	if err != nil {
		return nil, fmt.Errorf("daemon dir: %w", err)
	}
	d := &daemon{dir: dir, done: make(chan struct{})}
	addrFile := filepath.Join(dir, "addr")
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-data", filepath.Join(dir, "data"))
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	d.cmd.Stdout = &d.output
	d.cmd.Stderr = &d.output
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	if err := d.waitReady(ctx, addrFile); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// waitReady polls for the address file, then for /healthz.  The file is
// written non-atomically, so a value that parses but does not answer is
// re-read until the deadline.
func (d *daemon) waitReady(ctx context.Context, addrFile string) error {
	deadline := time.Now().Add(daemonBootTimeout)
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.done:
			return d.failure("exited during start-up")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return d.failure(fmt.Sprintf("not healthy within %v", daemonBootTimeout))
		}
		if raw, err := os.ReadFile(addrFile); err == nil {
			addr := strings.TrimSpace(string(raw))
			if _, port, err := net.SplitHostPort(addr); err == nil && port != "" && port != "0" {
				if err := (&server.Client{BaseURL: "http://" + addr, HTTPClient: hc}).Healthz(ctx); err == nil {
					d.addr = addr
					return nil
				}
			}
		}
		time.Sleep(readyPoll)
	}
}

// failure describes a daemon error with the tail of its output.
func (d *daemon) failure(what string) error {
	return fmt.Errorf("faqd %s; output tail:\n%s", what, d.output.tail())
}

// stop sends SIGTERM and waits for the graceful drain, which must exit 0.
func (d *daemon) stop() error {
	defer os.RemoveAll(d.dir)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal faqd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(daemonDrainTimeout):
		d.kill()
		return d.failure(fmt.Sprintf("did not drain within %v", daemonDrainTimeout))
	}
	if d.err != nil {
		return d.failure(fmt.Sprintf("drain exited with %v", d.err))
	}
	return nil
}

// kill ends the child if it still runs, waits for it and removes its
// directory.
func (d *daemon) kill() {
	d.once.Do(func() {
		select {
		case <-d.done:
		default:
			d.cmd.Process.Kill()
			<-d.done
		}
	})
	os.RemoveAll(d.dir)
}

// cpuTime returns the daemon's utime+stime from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tailBuffer keeps the last few KiB written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
