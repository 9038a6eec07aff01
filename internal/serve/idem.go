package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// maxIdemKeyBytes caps the Idempotency-Key header. A client's key is a
// request identifier, not a payload: a longer one gets a typed 400
// before any entry is made, so no request pins a large key in the
// cache.
const maxIdemKeyBytes = 256

// idemEntry is one idempotency key's lifecycle: the first request
// with the key (the leader) computes; concurrent duplicates wait on
// done; once complete holds a success, every later request with the
// same key and body replays the stored bytes verbatim.
type idemEntry struct {
	fp          string // request fingerprint the key is bound to
	done        chan struct{}
	ok          bool // complete() was called — body/contentType are valid
	body        []byte
	contentType string
}

// idemCache deduplicates requests by Idempotency-Key header. The
// engine underneath is deterministic, so a replayed response is
// byte-identical to the original by construction; the cache makes it
// also free, and makes client retries after an ambiguous network
// failure safe.
type idemCache struct {
	mu      sync.Mutex
	entries map[string]*idemEntry
}

func newIdemCache() *idemCache {
	return &idemCache{entries: make(map[string]*idemEntry)}
}

// fingerprint canonically identifies a request body + route, binding
// an idempotency key to exactly one logical request.
func fingerprint(route string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(route))
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// begin claims the key. Outcomes:
//   - leader=true: the caller computes and must call complete or
//     abandon on the returned entry, exactly once.
//   - leader=false, err=nil: a previous request finished; the entry
//     holds its replayable response.
//   - err != nil: the key is bound to a different body (conflict), or
//     ctx fired while waiting for an in-flight leader.
func (c *idemCache) begin(ctx context.Context, key, fp string) (e *idemEntry, leader bool, err *Error) {
	c.mu.Lock()
	if cur, ok := c.entries[key]; ok {
		c.mu.Unlock()
		if cur.fp != fp {
			return nil, false, &Error{Kind: KindConflict, Msg: "idempotency key already used with a different request"}
		}
		select {
		case <-cur.done:
			if !cur.ok {
				// The leader failed and removed the entry; its error was
				// returned to the leader's client. This waiter races a
				// fresh begin — tell it to retry.
				return nil, false, &Error{Kind: KindInternal, Msg: "idempotent request failed; retry"}
			}
			return cur, false, nil
		case <-ctx.Done():
			return nil, false, ctxError(ctx, nil)
		}
	}
	e = &idemEntry{fp: fp, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	return e, true, nil
}

// complete stores the leader's successful response for replay and
// releases every waiter.
func (c *idemCache) complete(key string, e *idemEntry, body []byte, contentType string) {
	c.mu.Lock()
	e.ok = true
	e.body = body
	e.contentType = contentType
	c.mu.Unlock()
	close(e.done)
}

// abandon removes a failed leader's claim so a later retry can run
// fresh; waiters are released with ok=false.
func (c *idemCache) abandon(key string, e *idemEntry) {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
	close(e.done)
}
