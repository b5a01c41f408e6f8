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
	"syscall"
	"time"
)

// server is one xqserve subprocess serving a durable, writable corpus over
// loopback HTTP.
type server struct {
	addr   string
	cmd    *exec.Cmd
	log    *os.File
	killed bool
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches xqserve on walDir (recovering whatever it holds) and
// waits until /healthz answers. xqserve fsyncs its per-shard WAL on every
// commit; that is its only flush policy.
func startServer(ctx context.Context, bin, walDir, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-waldir", walDir, "-shards", strconv.Itoa(shards), "-addr", addr)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting xqserve: %w", err)
	}
	s := &server{addr: addr, cmd: cmd, log: lf}
	if err := s.waitReady(ctx); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

func (s *server) waitReady(ctx context.Context) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := c.Get(s.url("/healthz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("xqserve did not become ready within 60s")
}

// kill SIGKILLs the server and waits for it to exit. It is idempotent and
// accepts a nil server.
func (s *server) kill() {
	if s == nil || s.killed {
		return
	}
	s.killed = true
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.log.Close()
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// conn is one HTTP connection of the load generator: a client whose
// transport keeps exactly one connection to the server.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and reads the whole response into c.buf; it returns
// when the last response byte has arrived. A non-2xx status is an error.
func (c *conn) do(method, url string, body string) error {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, strings.TrimSpace(c.buf.String()))
	}
	return nil
}

// put upserts one document.
func (c *conn) put(s *server, id, xml string) error {
	return c.do(http.MethodPut, s.url("/docs/"+id), xml)
}

// mutate sends one mutation.
func (c *conn) mutate(s *server, m mutation) error {
	if m.op == "delete" {
		return c.do(http.MethodDelete, s.url("/docs/"+m.id), "")
	}
	return c.put(s, m.id, m.xml)
}

// metrics scrapes the server's Prometheus counters.
func (c *conn) metrics(s *server) (map[string]float64, error) {
	if err := c.do(http.MethodGet, s.url("/metrics"), ""); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(c.buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
