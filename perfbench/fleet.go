package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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
)

// server is one cpgserve process started for a single run.
type server struct {
	URL    string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once the process has been waited for
	once   sync.Once
}

// serverProcs pins the Go runtime of every cpgserve to the same processor
// count, so a run never depends on a host-derived default.
const serverProcs = 2

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches cpgserve with a pinned worker budget on a fresh
// ephemeral port and waits until /healthz answers. Its per-request stderr
// log goes to a file, so the server never blocks on an undrained pipe.
func startServer(bin, logPath string, workers int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(filepath.Join(bin, "cpgserve"), "-addr", addr, "-workers", strconv.Itoa(workers))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs))
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{URL: "http://" + addr, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitHealthy(10 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("cpgserve exited before becoming healthy: %v", s.cmd.ProcessState)
		default:
		}
		resp, err := http.Get(s.URL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cpgserve at %s not healthy after %v", s.URL, limit)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop terminates the server (SIGTERM, then SIGKILL after its drain window)
// and waits until the process has exited. Stopping twice is harmless.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		defer s.log.Close()
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
			return
		case <-time.After(15 * time.Second):
		}
		s.cmd.Process.Kill()
		<-s.exited
	})
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches /metrics and returns every sample keyed by its series
// (name plus label set, exactly as exposed).
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseExposition(body)
}

// parseExposition reads Prometheus text exposition samples.
func parseExposition(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds up every series of one metric family.
func sumSeries(m map[string]float64, family string) float64 {
	var sum float64
	for series, v := range m {
		if series == family || strings.HasPrefix(series, family+"{") {
			sum += v
		}
	}
	return sum
}

// fleet is the set of servers of one run.
type fleet []*server

// startFleet starts n servers whose logs go to <dir>/<prefix>-<i>.log.
func startFleet(ctx context.Context, bin, dir, prefix string, n, workers int) (fleet, error) {
	var f fleet
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			f.stop()
			return nil, err
		}
		s, err := startServer(bin, filepath.Join(dir, fmt.Sprintf("%s-%d.log", prefix, i)), workers)
		if err != nil {
			f.stop()
			return nil, err
		}
		f = append(f, s)
	}
	return f, nil
}

func (f fleet) stop() {
	for _, s := range f {
		s.stop()
	}
}

// peakRSSMB sums VmHWM over the fleet.
func (f fleet) peakRSSMB() (float64, error) {
	var sum float64
	for _, s := range f {
		mb, err := s.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}
