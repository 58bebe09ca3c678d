package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one sqlcleand process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logf    *os.File
	exited  chan struct{}
	waitErr error
}

// startDaemon starts sqlcleand with args on a free loopback port and
// returns once /healthz first answers 200, with the time that took from
// process start: the daemon's set-up time, crash recovery included.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = dieWithParent()
	d := &daemon{cmd: cmd, base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start sqlcleand: %w", err)
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	// A dedicated client: the load's connections are counted separately and
	// this one is closed before the load starts.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := start.Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("sqlcleand exited during start-up (%v); log: %s", d.waitErr, tail(logPath))
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("sqlcleand did not answer /healthz within 2m; log: %s", tail(logPath))
}

// stop shuts the daemon down — gracefully (SIGTERM: drain, final snapshot)
// or with SIGKILL — waits for it to exit, and returns its peak RSS in MB.
func (d *daemon) stop(graceful bool) (float64, error) {
	sig := syscall.SIGKILL
	if graceful {
		sig = syscall.SIGTERM
	}
	_ = d.cmd.Process.Signal(sig)
	select {
	case <-d.exited:
	case <-time.After(90 * time.Second):
		d.kill()
		return 0, errors.New("sqlcleand did not exit within 90s of SIGTERM")
	}
	d.logf.Close()
	if graceful && d.waitErr != nil {
		return 0, fmt.Errorf("sqlcleand exited with %v", d.waitErr)
	}
	return maxRSSMB(d.cmd.ProcessState), nil
}

// kill ends the process unconditionally and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.logf.Close()
}

// dieWithParent makes a child process get SIGKILL if the benchmark dies
// first, so no daemon outlives an interrupted run.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail returns the end of a log file for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// conns is the load's connection pool: at most limit HTTP connections to
// the daemon, ever. Logical connection i always uses transport i % limit, and
// every transport keeps at most one connection, so each shard's entries
// travel on one connection in log order.
type conns struct {
	clients []*http.Client
	dials   atomic.Int64
}

func newConns(want, limit int) *conns {
	n := max(1, min(want, limit))
	c := &conns{}
	var d net.Dialer
	for i := 0; i < n; i++ {
		tr := &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		}
		c.clients = append(c.clients, &http.Client{Transport: tr, Timeout: 2 * time.Minute})
	}
	return c
}

func (c *conns) get(i int) *http.Client { return c.clients[i%len(c.clients)] }

func (c *conns) close() {
	for _, cl := range c.clients {
		cl.CloseIdleConnections()
	}
}

// ingestReply is the POST /ingest response document.
type ingestReply struct {
	Accepted int    `json:"accepted"`
	Error    string `json:"error"`
	Line     int    `json:"line"`
}

// post sends one TSV ingest body and decodes the reply.
func post(cl *http.Client, base string, body []byte) (int, ingestReply, error) {
	resp, err := cl.Post(base+"/ingest?format=tsv", "text/tab-separated-values", bytes.NewReader(body))
	if err != nil {
		return 0, ingestReply{}, err
	}
	defer resp.Body.Close()
	var r ingestReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return resp.StatusCode, r, fmt.Errorf("decode ingest reply: %w", err)
	}
	return resp.StatusCode, r, nil
}

// getJSON fetches a document; v may be nil to discard it.
func getJSON(cl *http.Client, url string, v any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// health is the part of /healthz the benchmark reads.
type health struct {
	OpenSessions int `json:"open_sessions"`
	QueueDepth   int `json:"queue_depth"`
	EntriesIn    int `json:"entries_in"`
}

// waitDrained polls /healthz until the engine has applied want entries and
// the queues are empty, and returns when that was first seen.
func waitDrained(cl *http.Client, base string, want int, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		var h health
		if err := getJSON(cl, base+"/healthz", &h); err != nil {
			return time.Time{}, err
		}
		if h.EntriesIn >= want && h.QueueDepth == 0 {
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("daemon did not drain: %d of %d entries applied, queue depth %d", h.EntriesIn, want, h.QueueDepth)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrapeMetrics reads the daemon's Prometheus text into name → value.
func scrapeMetrics(cl *http.Client, base string) (map[string]float64, error) {
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(b)
}

// parseMetrics reads Prometheus text — counters, gauges and the histogram
// _count/_sum series; bucket lines are skipped — without the sqlclean_
// prefix.
func parseMetrics(text []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "sqlclean_")] = f
		}
	}
	return out, sc.Err()
}
