package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is a running apsp-serve child.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{} // closed once the child has been waited for
}

// startServer spawns bin over the given store and graph and returns once
// /healthz answers "ok". The child is killed if this process dies.
func startServer(ctx context.Context, bin, storePath, graphPath string, cacheMB, rowCacheMB int) (*server, error) {
	// The server logs the address it was given, not the one it bound, so
	// port 0 cannot be used: reserve a free port and hand it over.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-store", storePath, "-graph", graphPath, "-addr", addr,
		"-cache-mb", strconv.Itoa(cacheMB), "-row-cache-mb", strconv.Itoa(rowCacheMB), "-log-level", "warn")
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.cmd.Wait(); close(s.exited) }()
	for deadline := time.Now().Add(30 * time.Second); ; {
		if h, err := s.health(); err == nil && h.Status == "ok" {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("apsp-serve exited during start: %s", s.stderr.String())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("apsp-serve not healthy after 30s: %s", s.stderr.String())
		}
	}
}

// stop ends the child — SIGTERM first so it drains and closes the store,
// SIGKILL if that takes over five seconds — and waits until it is gone.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Status string `json:"status"`
}

func (s *server) health() (health, error) {
	var h health
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// metrics scrapes the child's /metrics.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// peakRSSMiB reads VmHWM, the peak resident set, of a live process.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// residentMiB reads the current resident set of a live process.
func residentMiB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/%d/statm", pid)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}

// cpuSeconds reads the user plus system CPU time a live process has
// consumed so far.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesised command name are fixed; utime
	// and stime are the 12th and 13th of them, in USER_HZ ticks.
	const userHz = 100
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU times in /proc/%d/stat", pid)
	}
	return (utime + stime) / userHz, nil
}
