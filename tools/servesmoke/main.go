// Command servesmoke is the end-to-end smoke gate for cmd/dpmd (the
// make serve-smoke target): it boots the real daemon with chaos
// stalls armed, checks the header cap, exercises the deadline and
// load-shedding paths over real HTTP, populates the journal, sends
// SIGTERM, and asserts a clean exit 0 with a finalized, valid journal
// on disk. Any deviation exits non-zero with a description.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sdpm/tools/internal/smoke"
)

func main() {
	bin := flag.String("bin", "", "path to the dpmd binary under test")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "servesmoke: -bin is required")
		os.Exit(2)
	}
	if err := run(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

func run(bin string) error {
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "smoke.journal")

	// Chaos stalls every request for 1.5s: long enough for a 100ms
	// deadline to expire and for a second request to overflow the
	// one-deep queue, short enough for the success path to stay quick.
	d, err := smoke.Start(bin,
		"-addr", "127.0.0.1:0",
		"-journal", jpath,
		"-inflight", "1",
		"-queue", "1",
		"-queue-wait", "200ms",
		"-drain-timeout", "10s",
		"-chaos", "seed=1,stall=1,stall_ms=1500",
	)
	if err != nil {
		return err
	}
	defer d.Kill()
	base := d.URL()

	// 1. A 128 KiB header is over dpmd's 64 KiB cap: net/http answers
	// 431 before any handler runs.
	req, err := http.NewRequest("POST", base+"/v1/sim", strings.NewReader(`{"bench":"swim"}`))
	if err != nil {
		return err
	}
	req.Header.Set("Idempotency-Key", strings.Repeat("k", 128<<10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("oversized header: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		return fmt.Errorf("oversized header: got %d, want 431", resp.StatusCode)
	}

	// 2. Deadline-exceeding request: the chaos stall outlasts the
	// 100ms budget, so the response must be a typed 504.
	code, body, err := smoke.Post(base+"/v1/sim?timeout=100ms", `{"bench":"swim"}`)
	if err != nil {
		return fmt.Errorf("deadline request: %v", err)
	}
	if code != http.StatusGatewayTimeout || !strings.Contains(body, `"deadline"`) {
		return fmt.Errorf("deadline request: got %d %s, want 504 with kind deadline", code, body)
	}

	// 3. Overload: two concurrent requests against one slot and a
	// one-deep queue with a 200ms wait budget — at least one is shed
	// with 429 while the other eventually succeeds (or also sheds).
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, _, perr := smoke.Post(base+"/v1/sim?timeout=10s", `{"bench":"swim"}`)
			if perr == nil {
				codes[i] = c
			}
		}(i)
		time.Sleep(50 * time.Millisecond)
	}
	wg.Wait()
	if codes[0] != http.StatusTooManyRequests && codes[1] != http.StatusTooManyRequests {
		return fmt.Errorf("overload: no request shed with 429 (got %v)", codes)
	}

	// 4. Populate the journal through a full experiment request.
	code, body, err = smoke.Post(base+"/v1/experiment?timeout=60s", `{"id":"table2"}`)
	if err != nil {
		return fmt.Errorf("experiment request: %v", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("experiment request: got %d %s", code, body)
	}

	// 5. SIGTERM: graceful drain must exit 0 within the drain budget.
	if err := d.Drain(); err != nil {
		return err
	}

	// 6. The journal on disk is finalized: every line valid, every
	// cell unique, and the table2 cells present.
	cells, err := smoke.ValidateJournal(jpath)
	if err != nil {
		return err
	}
	fmt.Printf("servesmoke: drain flushed %d unique journal cells\n", cells)
	return nil
}
