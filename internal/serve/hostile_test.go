package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sdpm/internal/obs"
)

// Hostile-client tests: abusive or broken clients over a real TCP
// listener. The server must answer (or drop) each with a typed error,
// keep serving afterwards, and leak no goroutines.

// hostileServer boots the handler on a real listener.
func hostileServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	s := newTestServer(t, mutate)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs.URL
}

// checkGoroutines asserts the goroutine count settles back to the
// baseline (background pools aside) after hostile traffic.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across hostile traffic: %d -> %d", before, after)
	}
}

// A client that promises a body and disconnects halfway through it:
// the read error is contained, the connection is dropped, and the
// server keeps serving normal requests.
func TestHostileMidBodyDisconnect(t *testing.T) {
	s, base := hostileServer(t, nil)
	addr := strings.TrimPrefix(base, "http://")
	before := runtime.NumGoroutine() // baseline after the listener's own goroutines exist

	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		// Content-Length says 4096; send 10 bytes and vanish.
		fmt.Fprintf(conn, "POST /v1/sim HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"bench\":\"")
		time.Sleep(10 * time.Millisecond)
		conn.Close()
	}

	// The server is still healthy and still serves work.
	if w := do(s, "POST", "/v1/sim", `{"bench":"swim"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("request after hostile disconnects = %d (%s)", w.Code, w.Body.String())
	}
	checkGoroutines(t, before)
}

// Truncated and malformed JSON over a real connection get a typed 400
// and the connection stays usable for the next request.
func TestHostileMalformedJSON(t *testing.T) {
	_, base := hostileServer(t, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	for _, body := range []string{
		`{"bench":"swim"`,   // truncated
		`{"bench":`,         // cut mid-value
		"\x00\x01\x02",      // binary garbage
		`{"bench":"swim"}}`, // trailing brace
	} {
		resp, err := client.Post(base+"/v1/sim", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %q: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed body %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

// A client that sends a request and never reads the response must not
// wedge the server: the handler finishes, the response sits in the
// kernel buffer, and closing the connection cleans everything up.
func TestHostileNeverReads(t *testing.T) {
	s, base := hostileServer(t, nil)
	addr := strings.TrimPrefix(base, "http://")
	before := runtime.NumGoroutine() // baseline after the listener's own goroutines exist

	conns := make([]net.Conn, 0, 4)
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		body := `{"bench":"swim"}`
		fmt.Fprintf(conn, "POST /v1/sim HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		conns = append(conns, conn)
	}
	// Give the handlers time to finish writing into the socket buffers,
	// then vanish without reading a byte.
	time.Sleep(200 * time.Millisecond)
	for _, c := range conns {
		c.Close()
	}

	if w := do(s, "POST", "/v1/sim", `{"bench":"swim"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("request after never-reading clients = %d", w.Code)
	}
	checkGoroutines(t, before)
}

// A client that disconnects while its request is executing is counted
// as canceled, not as a server failure.
func TestHostileDisconnectMidExecution(t *testing.T) {
	s, base := hostileServer(t, func(c *Config) {
		c.Chaos = &Chaos{StallProb: 1, StallMS: 300, Seed: 1}
	})
	client := &http.Client{Timeout: 50 * time.Millisecond}
	_, err := client.Post(base+"/v1/sim", "application/json", strings.NewReader(`{"bench":"swim"}`))
	if err == nil {
		t.Fatal("expected the client timeout to abort the request")
	}
	// The handler notices the dead client when the stall checks its
	// context; the canceled counter advances.
	deadline := time.Now().Add(5 * time.Second)
	for s.coll.Value(obs.ServeCanceled) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.coll.Value(obs.ServeCanceled); n != 1 {
		t.Fatalf("serve_canceled = %d, want 1", n)
	}
}

// A faults field of "@<server path>" must not make the server read
// that file. Both endpoints answer a 400 validation error that never
// echoes the file's contents, and whose message is the same whether
// the path exists or not, so a client learns nothing about the
// server's filesystem.
func TestHostileFaultSpecFilePath(t *testing.T) {
	s := newTestServer(t, nil)
	dir := t.TempDir()
	const token = "k7Qz2leak"
	secret := filepath.Join(dir, "secret.spec")
	if err := os.WriteFile(secret, []byte(token+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.spec")
	bodies := map[string]string{
		"/v1/sim":        `{"bench":"swim","faults":%q}`,
		"/v1/experiment": `{"id":"table1","faults":%q}`,
	}
	for target, tmpl := range bodies {
		msgs := make([]string, 0, 2)
		for _, path := range []string{secret, missing} {
			w := do(s, "POST", target, fmt.Sprintf(tmpl, "@"+path), nil)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s @%s = %d, want 400 (%s)", target, path, w.Code, w.Body.String())
			}
			if strings.Contains(w.Body.String(), token) {
				t.Fatalf("%s leaked the file's contents: %s", target, w.Body.String())
			}
			var b errBody
			if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil || b.Error.Kind != KindValidation {
				t.Fatalf("%s: want a validation error envelope, got %s", target, w.Body.String())
			}
			msgs = append(msgs, strings.ReplaceAll(b.Error.Message, path, "PATH"))
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: message depends on the filesystem: %q (file exists) vs %q (missing)", target, msgs[0], msgs[1])
		}
	}
}

// A faults spec reaches the spin-up retry cascade, a loop whose backoff
// doubles per retry: an unbounded retry count overflowed the backoff
// (fig13 failed with a 500) or pinned an admission slot. Both endpoints
// must refuse it with a 400 before any work is admitted.
func TestHostileRetryCascade(t *testing.T) {
	s := newTestServer(t, nil)
	bodies := map[string]string{
		"/v1/sim":        `{"bench":"swim","faults":%q}`,
		"/v1/experiment": `{"id":"fig13","faults":%q}`,
	}
	for target, tmpl := range bodies {
		for _, spec := range []string{"spinup=1,retries=2000,backoff=500", "spinup=1,retries=10000000"} {
			w := do(s, "POST", target, fmt.Sprintf(tmpl, spec), nil)
			var b errBody
			if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &b) != nil || b.Error.Kind != KindValidation {
				t.Errorf("%s faults=%s: got %d %s, want a 400 validation error", target, spec, w.Code, w.Body.String())
			}
		}
	}
	if n := s.coll.Value(obs.ServeAccepted); n != 0 {
		t.Fatalf("%d requests admitted, want none", n)
	}
}

// Oversized bodies get a typed 413 and do not reach the engine.
func TestMaxBody413(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBody = 256 })
	big := `{"bench":"swim","faults":"` + strings.Repeat("x", 400) + `"}`
	w := do(s, "POST", "/v1/sim", big, nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413 (%s)", w.Code, w.Body.String())
	}
	if k := kindOf(t, w); k != KindTooLarge {
		t.Fatalf("kind = %q, want too_large", k)
	}
	// A small request on the same server still works.
	if w := do(s, "POST", "/v1/sim", `{"bench":"swim"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("small body on capped server = %d", w.Code)
	}
}

// The cap applies to /v1/experiment too, and respects the configured
// value rather than a hardcoded one.
func TestMaxBodyConfigured(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBody = 64 })
	pad := strings.Repeat("y", 80)
	w := do(s, "POST", "/v1/experiment", `{"id":"`+pad+`"}`, nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized experiment body = %d, want 413", w.Code)
	}
	var echo struct {
		Error struct {
			Meta map[string]any `json:"meta"`
		} `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &echo); err != nil {
		t.Fatalf("decoding 413 envelope: %v", err)
	}
	if echo.Error.Meta["max_body_bytes"] != float64(64) {
		t.Fatalf("413 meta = %v, want max_body_bytes 64", echo.Error.Meta)
	}
}
