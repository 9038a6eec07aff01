package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// bootTimeout bounds exec → /readyz.
	bootTimeout = 15 * time.Second
	// stopTimeout bounds SIGTERM → exit; dpmd's default drain budget is
	// 15s and nothing is in flight when the harness stops it.
	stopTimeout = 30 * time.Second
)

// daemon is one dpmd process the harness started.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	logDone chan struct{} // closed once stderr reaches EOF (the process exited)

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics

	waited bool
}

// startDaemon execs dpmd on a free loopback port, finds the bound
// address in its "dpmd listening" log line and waits for /readyz. It
// returns the daemon and the exec → ready time.
func startDaemon(ctx context.Context, bin string, c *http.Client) (*daemon, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting dpmd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.keep(line)
			if !strings.Contains(line, "dpmd listening") {
				continue
			}
			for _, f := range strings.Fields(line) {
				if a, ok := strings.CutPrefix(f, "addr="); ok {
					select {
					case addrCh <- a:
					default:
					}
				}
			}
		}
		// Keep draining after a scanner error so dpmd never blocks on a
		// full pipe.
		io.Copy(io.Discard, stderr)
	}()

	select {
	case a := <-addrCh:
		d.base = "http://" + a
	case <-d.logDone:
		d.kill()
		return nil, 0, fmt.Errorf("dpmd exited before listening: %s", d.lastLines())
	case <-time.After(bootTimeout):
		d.kill()
		return nil, 0, errors.New("dpmd never reported its listen address")
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			d.kill()
			return nil, 0, err
		}
		resp, err := c.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if ctx.Err() != nil || time.Since(t0) > bootTimeout {
			d.kill()
			return nil, 0, fmt.Errorf("dpmd at %s never became ready: %v", d.base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) keep(line string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tail) == 8 {
		d.tail = d.tail[1:]
	}
	d.tail = append(d.tail, line)
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop sends SIGTERM and waits for the graceful drain; anything but a
// clean exit 0 within stopTimeout is an error.
func (d *daemon) stop() error {
	if d.waited {
		return nil
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling dpmd: %w", err)
	}
	select {
	case <-d.logDone:
	case <-time.After(stopTimeout):
		d.kill()
		return fmt.Errorf("dpmd did not exit within %v of SIGTERM", stopTimeout)
	}
	d.waited = true
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("dpmd exit after SIGTERM: %v (%s)", err, d.lastLines())
	}
	return nil
}

// kill ends the process without a drain and waits for it; it is the
// cleanup path and safe to call after stop.
func (d *daemon) kill() {
	if d.waited {
		return
	}
	d.cmd.Process.Kill()
	<-d.logDone
	d.waited = true
	d.cmd.Wait()
}

// newClient returns a keep-alive client for two concurrent clients:
// plain net/http, no retries, so every failure is seen.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// post sends one JSON POST and returns the body of a 200 response with
// the client-side latency (request written to body fully read) in ms.
func post(ctx context.Context, c *http.Client, url, body string) ([]byte, float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(t)) / 1e6
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, ms, nil
}

// scrape reads the unlabeled samples of a /metrics endpoint.
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}
