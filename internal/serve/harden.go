package serve

// Daemon hardening added for the chaos harness (internal/chaos):
//
//   - Panic recovery: a handler panic answers 500 with a JSON body in
//     the scherr.ErrInternal class and increments the "schedd_panics"
//     expvar instead of killing the process — a long-lived daemon must
//     survive its own bugs and report them, not restart-loop.
//
//   - Compare idempotency: a client retrying through a flaky network
//     (internal/schedclient behind a fault-injecting proxy) attaches an
//     Idempotency-Key header; while the first attempt is in flight,
//     duplicates wait for it, and once it has answered 2xx duplicates
//     replay the stored answer (marked Idempotency-Replayed: true)
//     instead of re-running the work. Non-2xx outcomes are deliberately
//     not stored: a failed attempt's duplicate re-executes for real.
//     Every entry remembers the request body's hash — a key that
//     reappears under a DIFFERENT body (a restarted router re-minting
//     its deterministic key stream, a client bug) is a collision, not a
//     duplicate, and bypasses the store entirely: the request executes
//     for real rather than replaying some other request's answer.
//     Sweeps get the same guarantee from journal-name locking plus
//     journaled resume, so a duplicated sweep submission re-runs no
//     completed point.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"

	"cds/internal/scherr"
)

// withRecover is the outermost middleware: a panicking handler is
// reported as a 500 in the ErrInternal class instead of tearing down
// the whole process (net/http would only kill the one connection, but a
// panic must still produce a well-formed JSON error and a counter).
func (s *Server) withRecover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				s.cfg.Logf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				// Best effort: if the handler already started its answer
				// this write is lost on the wire, but the counter and log
				// above still record the panic.
				s.writeErr(w, fmt.Errorf("handler panic: %v: %w", v, scherr.ErrInternal))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// Panics reports how many handler panics were recovered so far.
func (s *Server) Panics() int64 { return s.panics.Load() }

// responseRecorder tees a handler's answer so a completed 2xx can be
// stored for idempotent replay.
type responseRecorder struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
}

func (r *responseRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.buf.Write(p)
	return r.ResponseWriter.Write(p)
}

// idemEntry is one Idempotency-Key's state: in flight until done is
// closed, replayable afterwards iff status is 2xx. bodyHash fingerprints
// the request body the key was first seen with, so a colliding reuse of
// the key for different work is detectable.
type idemEntry struct {
	done     chan struct{}
	bodyHash [sha256.Size]byte
	status   int
	body     []byte
}

// idemStore is the bounded idempotency map. Eviction is FIFO over
// insertion order; evicting an entry only forfeits dedup for retries
// arriving after capacity-many newer keys, never correctness.
type idemStore struct {
	mu    sync.Mutex
	m     map[string]*idemEntry
	order []string
	bound int
}

func newIdemStore(bound int) *idemStore {
	if bound <= 0 {
		bound = 256
	}
	return &idemStore{m: map[string]*idemEntry{}, bound: bound}
}

// begin claims key: (entry, true) makes the caller the owner who must
// call complete; (entry, false) hands back an existing entry — the
// caller waits on it only if its bodyHash matches the new request's.
func (st *idemStore) begin(key string, bodyHash [sha256.Size]byte) (*idemEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.m[key]; ok {
		return e, false
	}
	e := &idemEntry{done: make(chan struct{}), bodyHash: bodyHash}
	st.m[key] = e
	st.order = append(st.order, key)
	if len(st.order) > st.bound {
		oldest := st.order[0]
		st.order = st.order[1:]
		delete(st.m, oldest)
	}
	return e, true
}

// complete settles an owned entry: 2xx answers become replayable; other
// outcomes remove the key so a later duplicate re-executes for real.
func (st *idemStore) complete(key string, e *idemEntry, status int, body []byte) {
	st.mu.Lock()
	if status >= 200 && status < 300 {
		e.status, e.body = status, body
	} else if st.m[key] == e {
		delete(st.m, key)
		for i, k := range st.order {
			if k == key {
				st.order = append(st.order[:i], st.order[i+1:]...)
				break
			}
		}
	}
	st.mu.Unlock()
	close(e.done)
}

// idemBegin implements the Idempotency-Key protocol for one request:
// proceed=true means the caller must run the work — with finish non-nil
// it owns the key and calls finish with the recorded answer; with finish
// nil the key collided with a DIFFERENT body (a re-minted router key, a
// client bug) and the request runs outside the store, so the collision
// can never replay another request's answer. proceed=false means the
// response has already been written (a replayed stored answer, or a
// cancellation while waiting on the first attempt).
func (s *Server) idemBegin(w http.ResponseWriter, r *http.Request, key string, bodyHash [sha256.Size]byte) (finish func(status int, body []byte), proceed bool) {
	for {
		e, owner := s.idem.begin(key, bodyHash)
		if owner {
			return func(status int, body []byte) {
				s.idem.complete(key, e, status, body)
			}, true
		}
		if e.bodyHash != bodyHash {
			s.idemCollisions.Add(1)
			s.cfg.Logf("serve: idempotency key %q reused with a different body; executing for real", key)
			return nil, true
		}
		select {
		case <-e.done:
			if e.status != 0 {
				s.idemHits.Add(1)
				s.cfg.Logf("serve: idempotent replay for key %q", key)
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Idempotency-Replayed", "true")
				w.WriteHeader(e.status)
				w.Write(e.body)
				return nil, false
			}
			// The first attempt failed; loop to claim ownership and
			// execute this duplicate for real.
		case <-r.Context().Done():
			s.writeErr(w, scherr.Canceled(r.Context().Err()))
			return nil, false
		}
	}
}
