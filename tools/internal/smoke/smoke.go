// Package smoke is the scaffolding the end-to-end dpmd gates share
// (tools/servesmoke, tools/soaksmoke): boot the real daemon binary,
// find the address it logs, wait for it to report healthy, talk HTTP
// to it, drain it with SIGTERM, and check the journal it leaves.
package smoke

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"sdpm/internal/journal"
)

// Daemon is a running dpmd child process.
type Daemon struct {
	cmd *exec.Cmd
	// Addr is the host:port the daemon logged as its listen address.
	Addr string
}

// Start boots bin with args, which should bind an ephemeral port
// (-addr 127.0.0.1:0), and returns once the daemon has logged its
// address and answers /healthz. The daemon's stderr is echoed to ours.
// Call Kill (deferred) to reap the process on every path.
func Start(bin string, args ...string) (*Daemon, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &Daemon{cmd: cmd}
	if d.Addr, err = scanAddr(stderr, 10*time.Second); err != nil {
		d.Kill()
		return nil, err
	}
	if err := waitHealthy(d.URL()); err != nil {
		d.Kill()
		return nil, err
	}
	return d, nil
}

// URL returns the daemon's base URL.
func (d *Daemon) URL() string { return "http://" + d.Addr }

// Kill kills the daemon; it is a no-op after a clean Drain.
func (d *Daemon) Kill() { d.cmd.Process.Kill() }

// Drain sends SIGTERM and requires the daemon to exit 0 within 20s.
func (d *Daemon) Drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	waited := make(chan error, 1)
	go func() { waited <- d.cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			return fmt.Errorf("daemon exited non-zero after SIGTERM: %v", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		return fmt.Errorf("daemon did not exit within 20s of SIGTERM")
	}
}

// scanAddr reads the daemon's log until it reports its bound address,
// then keeps draining it so the child never blocks on a full pipe.
func scanAddr(stderr io.Reader, wait time.Duration) (string, error) {
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, "  [dpmd]", line)
			if strings.Contains(line, "dpmd listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						select {
						case addrCh <- a:
						default:
						}
					}
				}
			}
		}
	}()
	select {
	case a := <-addrCh:
		return a, nil
	case <-time.After(wait):
		return "", fmt.Errorf("daemon never reported its listen address")
	}
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("daemon never became healthy at %s", base)
}

// Post sends a JSON body and returns the status code and response body.
func Post(url, body string) (int, string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(b), nil
}

// Get returns the response body of a GET.
func Get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// ValidateJournal checks a drained daemon's journal: every line
// decodes, no cell key repeats (a retried request replayed instead of
// recomputing and re-appending), and at least one cell is present. It
// returns the number of cells.
func ValidateJournal(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("journal not flushed: %v", err)
	}
	seen := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		rec, derr := journal.DecodeLine(line)
		if derr != nil {
			return 0, fmt.Errorf("journal record invalid after drain: %v", derr)
		}
		if seen[rec.Key] {
			return 0, fmt.Errorf("journal has duplicate cell %q after finalize", rec.Key)
		}
		seen[rec.Key] = true
	}
	if len(seen) == 0 {
		return 0, fmt.Errorf("journal empty after successful experiments")
	}
	return len(seen), nil
}
