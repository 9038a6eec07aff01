package netx

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// upstreamHTTP boots a plain HTTP server returning a fixed body and a
// proxy in front of it, and returns the proxy's base URL plus a
// cleanup-registered handle to both.
func upstreamHTTP(t *testing.T, body string, seed int64, cfg Config) (string, *Proxy) {
	t.Helper()
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(up.Close)
	p, err := New(strings.TrimPrefix(up.URL, "http://"), seed, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return "http://" + addr.String(), p
}

// client returns an HTTP client that opens a fresh connection per
// request (keep-alive off), aligning request attempts with the
// proxy's connection indices.
func client(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
}

func TestPassthrough(t *testing.T) {
	const body = "hello from upstream\n"
	base, p := upstreamHTTP(t, body, 1, Config{})
	resp, err := client(5 * time.Second).Get(base + "/x")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != body {
		t.Fatalf("body = %q, want %q", got, body)
	}
	c := p.Counters()
	if c.Accepted != 1 || c.Resets+c.Truncates+c.Corrupts+c.Blackholes+c.Stalls != 0 {
		t.Fatalf("counters = %+v, want one clean connection", c)
	}
}

func TestResetAtExactIndex(t *testing.T) {
	body := strings.Repeat("r", 4096)
	base, p := upstreamHTTP(t, body, 1, Config{ResetAt: []int{1}})
	cl := client(5 * time.Second)

	// Connection 0: clean.
	resp, err := cl.Get(base)
	if err != nil {
		t.Fatalf("conn 0: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(b) != body {
		t.Fatalf("conn 0 body err=%v len=%d", err, len(b))
	}

	// Connection 1: reset mid-response.
	resp, err = cl.Get(base)
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatalf("conn 1: expected a transport error from the reset")
	}
	if got := p.Counters().Resets; got != 1 {
		t.Fatalf("resets = %d, want 1", got)
	}
}

func TestTruncateShortensBody(t *testing.T) {
	body := strings.Repeat("t", 2048)
	base, p := upstreamHTTP(t, body, 1, Config{TruncateAt: []int{0}, TruncateAfterBytes: 100})
	resp, err := client(5 * time.Second).Get(base)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	got, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr == nil {
		t.Fatalf("expected unexpected-EOF reading a truncated body, got %d clean bytes", len(got))
	}
	if len(got) > 200 {
		t.Fatalf("truncated body still delivered %d bytes", len(got))
	}
	if p.Counters().Truncates != 1 {
		t.Fatalf("truncates = %d, want 1", p.Counters().Truncates)
	}
}

func TestCorruptFlipsOneBodyByte(t *testing.T) {
	body := strings.Repeat("c", 512)
	base, p := upstreamHTTP(t, body, 7, Config{CorruptAt: []int{0}})
	resp, err := client(5 * time.Second).Get(base)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	got, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		t.Fatalf("read: %v", rerr)
	}
	if len(got) != len(body) {
		t.Fatalf("corruption changed the length: %d != %d", len(got), len(body))
	}
	diff := 0
	for i := range got {
		if got[i] != body[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupted %d bytes, want exactly 1", diff)
	}
	if p.Counters().Corrupts != 1 {
		t.Fatalf("corrupts = %d, want 1", p.Counters().Corrupts)
	}
}

func TestBlackholeTimesOut(t *testing.T) {
	base, p := upstreamHTTP(t, "x", 1, Config{BlackholeAt: []int{0}})
	_, err := client(300 * time.Millisecond).Get(base)
	if err == nil {
		t.Fatalf("expected a timeout against a blackholed connection")
	}
	if p.Counters().Blackholes != 1 {
		t.Fatalf("blackholes = %d, want 1", p.Counters().Blackholes)
	}
}

func TestStallDelaysButCompletes(t *testing.T) {
	body := strings.Repeat("s", 4096)
	base, p := upstreamHTTP(t, body, 1, Config{StallAt: []int{0}, StallMS: 200})
	start := time.Now()
	resp, err := client(5 * time.Second).Get(base)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	got, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || string(got) != body {
		t.Fatalf("stalled response corrupted: err=%v len=%d", rerr, len(got))
	}
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Fatalf("response returned in %v; the 200ms stall did not happen", el)
	}
	if p.Counters().Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", p.Counters().Stalls)
	}
}

func TestSeededDrawsAreDeterministic(t *testing.T) {
	cfg := Config{ResetProb: 0.3, CorruptProb: 0.2, StallProb: 0.1, BlackholeProb: 0.05}
	a, err := New("127.0.0.1:1", 42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("127.0.0.1:1", 42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New("127.0.0.1:1", 43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same, differ := true, false
	for i := 0; i < 512; i++ {
		pa, pb, po := a.plan(i), b.plan(i), other.plan(i)
		if pa != pb {
			same = false
		}
		if pa != po {
			differ = true
		}
	}
	if !same {
		t.Fatalf("same seed produced different plans")
	}
	if !differ {
		t.Fatalf("different seeds produced identical plans across 512 connections")
	}
}

func TestProxyCloseSeversBlackhole(t *testing.T) {
	base, p := upstreamHTTP(t, "x", 1, Config{BlackholeAt: []int{0}})
	errCh := make(chan error, 1)
	go func() {
		_, err := client(10 * time.Second).Get(base)
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond)
	p.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatalf("blackholed request succeeded after proxy close")
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("blackholed request not severed by proxy close")
	}
}

// Validate rejects non-finite, negative and out-of-range knobs, and New
// refuses such a configuration.
func TestValidate(t *testing.T) {
	for name, c := range map[string]Config{
		"probability above one": {ResetProb: 2},
		"negative probability":  {CorruptProb: -0.1},
		"NaN latency":           {LatencyMS: math.NaN()},
		"infinite blackhole":    {BlackholeProb: math.Inf(1)},
		"negative stall":        {StallMS: -1},
		"negative byte offset":  {TruncateAfterBytes: -1},
		"negative index":        {ResetAt: []int{3, -1}},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
		if _, err := New("127.0.0.1:1", 1, c); err == nil {
			t.Errorf("%s: New accepted %+v", name, c)
		}
	}
	ok := Config{LatencyMS: 5, ResetProb: 1, ResetAt: []int{0, 9}, StallMS: 250, StallAfterBytes: 128}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate(%+v): %v", ok, err)
	}
}

// An upstream that dribbles the response one byte at a time must not
// defeat the header-end scan: the CRLFCRLF terminator spans many tiny
// reads, and body-relative faults still have to land.
func TestHeaderSplitAcrossTinyReadsStillCorrupts(t *testing.T) {
	body := strings.Repeat("b", 256)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, aerr := ln.Accept()
			if aerr != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				c.Read(buf) // request head; one read is enough for a GET
				head := fmt.Sprintf("HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n", len(body))
				for i := 0; i < len(head); i++ {
					if _, werr := c.Write([]byte{head[i]}); werr != nil {
						return
					}
					// Give the proxy time to Read each byte separately so
					// the terminator really is split across chunks.
					time.Sleep(time.Millisecond)
				}
				c.Write([]byte(body))
			}(conn)
		}
	}()

	p, err := New(ln.Addr().String(), 7, Config{CorruptAt: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, err := client(10 * time.Second).Get("http://" + addr.String())
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	got, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		t.Fatalf("read: %v", rerr)
	}
	if len(got) != len(body) {
		t.Fatalf("body length %d, want %d", len(got), len(body))
	}
	diff := 0
	for i := range got {
		if got[i] != body[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupted %d body bytes, want exactly 1 (header-end never found?)", diff)
	}
	if p.Counters().Corrupts != 1 {
		t.Fatalf("corrupts = %d, want 1", p.Counters().Corrupts)
	}
}

func TestUpstreamDownClosesConnection(t *testing.T) {
	// Point at a port nothing listens on: the proxy accepts, fails to
	// dial, and closes the client connection instead of hanging.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	p, err := New(dead, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, gerr := client(2 * time.Second).Get("http://" + addr.String())
	if gerr == nil {
		t.Fatalf("expected an error when the upstream is down")
	}
}
