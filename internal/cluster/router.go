package cluster

// The router: a thin, stateless HTTP front for a schedd fleet. It
// forwards /v1/compare and /v1/sweep to the ring owner of the request's
// routing key and fails over along the replica walk when a worker dies
// under the request. The router holds no scheduling state of its own —
// every correctness guarantee (idempotent replay, journal locking,
// crash-safe resume) lives in the workers; the router's job is only to
// pick them well and to never turn a surviving fleet into an outage.
//
// Failover discipline:
//
//   - Transport failures (connect refused, reset, truncated body) move
//     to the next distinct replica and count against the worker's
//     breaker (ReportForwardFailure).
//   - 500/502/503/504 worker answers fail over too; if every candidate
//     answers 5xx the LAST such answer is relayed verbatim — the worker
//     verdict (circuit_open, transient_fault...) is more informative
//     than anything the router could synthesize.
//   - Everything else (2xx, 4xx including 429) relays immediately: a
//     request error will not get better on a different replica, and a
//     truthful 429 must reach the client's backoff.
//   - Every forwarded attempt of one request carries the SAME
//     Idempotency-Key — the client's if present, a router-minted one
//     otherwise — so a failover after a worker accepted-but-couldn't-
//     answer is deduped by the replay store when it lands back on that
//     worker. Minted keys carry a per-process random nonce: a restarted
//     router (or a second router in front of the same fleet) must never
//     re-issue a key some earlier request already burned, or the
//     worker's replay store would answer the OLD request's result.

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"cds/internal/serve"
	"cds/internal/spec"
	"cds/internal/workloads"
)

// maxForwardBody bounds request and response bodies the router buffers.
// Responses are buffered in full before relaying so a worker dying
// mid-answer is a failover, not a truncated 200 at the client.
const maxForwardBody = 16 << 20

// AttemptsHeader reports how many workers a request visited.
const AttemptsHeader = "Router-Attempts"

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Fleet supplies membership, health and the ring. Required.
	Fleet *Fleet
	// FailoverAttempts caps how many distinct replicas one request may
	// visit (0 = every candidate).
	FailoverAttempts int
	// HTTP substitutes the forwarding transport; nil means a plain
	// client (no client-side timeout: forwards inherit the request
	// context, and long journaled sweeps legitimately run for minutes).
	HTTP *http.Client
	// Logf observes routing decisions; nil disables.
	Logf func(format string, args ...any)
}

// Router is the http.Handler. Construct with NewRouter.
type Router struct {
	cfg   RouterConfig
	fleet *Fleet
	http  *http.Client
	mux   *http.ServeMux
	// nonce namespaces minted idempotency keys to this router process:
	// the minted counter restarts at zero with the process, and only the
	// nonce keeps a rebooted router's key stream disjoint from the one it
	// issued before the restart.
	nonce   string
	minted  atomic.Int64
	served  atomic.Int64
	failed  atomic.Int64
	reroute atomic.Int64
}

// NewRouter builds the router over a fleet.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	h := cfg.HTTP
	if h == nil {
		// A deep idle pool per worker: the router multiplexes every
		// client onto a few upstreams, so the default two idle conns per
		// host would churn ports under any concurrent burst.
		h = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 128,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	rt := &Router{cfg: cfg, fleet: cfg.Fleet, http: h, mux: http.NewServeMux(), nonce: bootNonce()}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /v1/ring", rt.handleRing)
	rt.mux.HandleFunc("POST /v1/compare", rt.handleCompare)
	rt.mux.HandleFunc("POST /v1/sweep", rt.handleSweep)
	return rt
}

// bootNonce draws the per-process key namespace. The crypto/rand
// failure path (exotic: no urandom) falls back to the boot clock —
// still distinct across restarts, which is all the nonce must be.
func bootNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz: the router is ready while at least one worker is a
// routing candidate. With zero, load balancers should stop sending — a
// 503 here is the fleet-level analogue of a worker's truthful readyz.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := rt.fleet.Snapshot()
	status := http.StatusOK
	state := "ready"
	if snap.Eligible == 0 {
		status, state = http.StatusServiceUnavailable, "no_workers"
		w.Header().Set("Retry-After", "1")
	}
	serve.WriteJSON(w, status, map[string]any{
		"status":   state,
		"eligible": snap.Eligible,
		"workers":  len(snap.Workers),
	})
}

func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, rt.fleet.Snapshot())
}

// compareRoutingKey resolves a compare request body to its partition
// fingerprint — the SAME fingerprint the worker's result cache keys on,
// resolved the same way (workload table or embedded spec). Requests the
// router cannot resolve (unknown workload, bad spec) hash by raw body:
// they still route deterministically, and the worker stays the single
// authority for the 400.
func compareRoutingKey(body []byte) []byte {
	var req struct {
		Workload string          `json:"workload"`
		Spec     json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(body, &req); err == nil {
		if req.Workload != "" {
			if e, err := workloads.ByName(req.Workload); err == nil {
				return CompareKey(e.Part.Fingerprint())
			}
		} else if len(req.Spec) > 0 {
			if part, _, err := spec.Parse(req.Spec); err == nil {
				return CompareKey(part.Fingerprint())
			}
		}
	}
	return SweepKey("", body) // content-hash fallback
}

func (rt *Router) handleCompare(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxForwardBody))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "reading request body: "+err.Error(), "invalid_spec")
		return
	}
	// One idempotency key per request, minted here when the client sent
	// none, reused verbatim across every failover attempt.
	idemKey := r.Header.Get("Idempotency-Key")
	if idemKey == "" {
		idemKey = fmt.Sprintf("rt-%s-%d", rt.nonce, rt.minted.Add(1))
	}
	rt.forward(w, r, compareRoutingKey(body), body, idemKey)
}

func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxForwardBody))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "reading request body: "+err.Error(), "invalid_spec")
		return
	}
	var req struct {
		Journal string `json:"journal"`
	}
	_ = json.Unmarshal(body, &req)
	// Sweeps carry no Idempotency-Key: their exactly-once story is the
	// journal (name lock + resume), which is also the routing key.
	rt.forward(w, r, SweepKey(req.Journal, body), body, r.Header.Get("Idempotency-Key"))
}

// forward tries the key's candidates in ring order until one produces a
// relayable answer.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key, body []byte, idemKey string) {
	candidates := rt.fleet.Candidates(key, rt.cfg.FailoverAttempts)
	if len(candidates) == 0 {
		rt.failed.Add(1)
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusServiceUnavailable, "no workers in the fleet", "no_upstream")
		return
	}
	var lastResp *bufferedResponse
	var transportErrs []string
	for i, id := range candidates {
		addr, ok := rt.fleet.Addr(id)
		if !ok {
			continue
		}
		resp, err := rt.tryWorker(r, addr, body, idemKey)
		if err != nil {
			if r.Context().Err() != nil {
				// The CLIENT vanished (disconnect or deadline) while the
				// forward was in flight. That is not the worker's fault —
				// a breaker penalty here would let a burst of impatient
				// clients eject a healthy worker pinned to a hot key —
				// and the failover walk is pointless: every further
				// attempt dies the same way. Answer best-effort and stop.
				rt.failed.Add(1)
				rt.cfg.Logf("cluster: %s %s: client gone during forward to %s (%v)", r.Method, r.URL.Path, id, err)
				serve.WriteError(w, http.StatusServiceUnavailable, "client canceled while forwarding: "+err.Error(), "canceled")
				return
			}
			// Dead on the wire: count it against the worker and move on.
			rt.fleet.ReportForwardFailure(id)
			transportErrs = append(transportErrs, fmt.Sprintf("%s: %v", id, err))
			rt.cfg.Logf("cluster: %s %s: worker %s failed (%v), failing over", r.Method, r.URL.Path, id, err)
			continue
		}
		if isFailoverStatus(resp.status) && i < len(candidates)-1 {
			rt.reroute.Add(1)
			rt.cfg.Logf("cluster: %s %s: worker %s answered %d, failing over", r.Method, r.URL.Path, id, resp.status)
			lastResp = resp
			continue
		}
		rt.served.Add(1)
		resp.relay(w, i+1)
		return
	}
	// Candidates exhausted. A worker's 5xx verdict beats a synthetic
	// error; with only transport failures, answer 503 (retryable — the
	// fleet may be mid-recovery) rather than 502, so well-behaved
	// clients back off and re-pose.
	rt.failed.Add(1)
	if lastResp != nil {
		lastResp.relay(w, len(candidates))
		return
	}
	w.Header().Set("Retry-After", "1")
	serve.WriteError(w, http.StatusServiceUnavailable,
		"no upstream answered: "+strings.Join(transportErrs, "; "), "no_upstream")
}

// isFailoverStatus reports worker answers worth trying elsewhere:
// server-side trouble. 429 is excluded on purpose (truthful shedding
// must reach the client), as is every 4xx.
func isFailoverStatus(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// bufferedResponse is one worker's complete answer, safe to relay or
// discard.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

// forwardHeaders are the client request headers a worker needs: the
// body's type and, for a tenant-mode worker, the tenant the request is
// admitted under (the Idempotency-Key is set separately — the router
// mints one when the client sent none).
var forwardHeaders = []string{"Content-Type", serve.TenantHeader}

// relayHeaders are the worker headers worth forwarding to the client.
var relayHeaders = []string{
	"Content-Type", "Retry-After", "Idempotency-Replayed", "Server-Timing", "Schedd-Worker",
}

func (b *bufferedResponse) relay(w http.ResponseWriter, attempts int) {
	for _, h := range relayHeaders {
		if v := b.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(AttemptsHeader, fmt.Sprintf("%d", attempts))
	w.WriteHeader(b.status)
	w.Write(b.body)
}

// tryWorker forwards the request to one worker and buffers the full
// answer. Any transport error — including one that strikes after the
// status line, mid-body — returns err, making worker death at ANY point
// a failover instead of a garbled client answer.
func (rt *Router) tryWorker(r *http.Request, addr string, body []byte, idemKey string) (*bufferedResponse, error) {
	url := "http://" + addr + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range forwardHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := rt.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Read one byte past the relay budget: an answer that overflows it is
	// a forward failure (fail over, or 503 when candidates run out), never
	// a silently truncated 200 relayed as if complete.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody+1))
	if err != nil {
		return nil, fmt.Errorf("reading worker answer: %w", err)
	}
	if len(data) > maxForwardBody {
		return nil, fmt.Errorf("worker answer exceeds the %d-byte relay budget", maxForwardBody)
	}
	return &bufferedResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// Stats reports the router's cumulative counters.
func (rt *Router) Stats() (served, failed, failovers int64) {
	return rt.served.Load(), rt.failed.Load(), rt.reroute.Load()
}
