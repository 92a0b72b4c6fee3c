// Package schedclient is the hardened Go client for schedd: the piece a
// router or load generator talks through when the network between it
// and the daemon cannot be trusted. It is the client half of the chaos
// harness's proxy seam, and the client the ROADMAP's sharded-schedd
// router will reuse.
//
//   - Every call runs under internal/retry: transport errors, truncated
//     or garbled responses and retryable statuses (408, 429, 5xx, and
//     409 journal_busy) are classed scherr.ErrTransient and backed off;
//     4xx request errors map onto the scherr taxonomy and fail fast.
//
//   - Retry-After is honored: an HTTPError carries the server's hint and
//     retry.Policy.Do sleeps it (clamped to MaxDelay) instead of the
//     shorter computed backoff.
//
//   - Compare calls are idempotency-keyed: one logical call keeps one
//     key across every retry, so a duplicated or retried submission
//     (a proxy that dropped the response, a reset mid-answer) replays
//     the server's stored answer instead of double-running the work.
//     Keys are deterministic in (Seed, call index), keeping chaos runs
//     reproducible. Sweeps are idempotent by journal name instead:
//     re-POSTing resumes, and a concurrent duplicate's 409 is retried
//     until the first copy finishes.
package schedclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cds/internal/retry"
	"cds/internal/scherr"
	"cds/internal/serve"
)

// maxBody bounds how much of any response the client will read.
const maxBody = 8 << 20

// Config parameterizes a Client. BaseURL is required; the zero value of
// everything else is usable (default retry policy, a plain http.Client,
// seed 0).
type Config struct {
	// BaseURL is the server (or fault proxy) root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// BaseURLs, when set, lists failover targets: attempt n of a logical
	// call goes to BaseURLs[(n-1) % len], so a retry after a dead or
	// failing server walks the replica list instead of hammering one
	// address. Every attempt of one logical Compare reuses the SAME
	// Idempotency-Key across targets, so a failover that lands on a
	// worker that already saw the submission replays instead of
	// re-running. Overrides BaseURL.
	BaseURLs []string
	// HTTP substitutes the transport; nil means a fresh http.Client.
	HTTP *http.Client
	// Retry wraps every call. Its MaxDelay caps honored Retry-After hints.
	Retry retry.Policy
	// Seed makes the idempotency-key stream deterministic; equal seeds
	// yield equal key sequences (chaos reproducibility).
	Seed int64
	// Logf observes retries and replays; nil disables.
	Logf func(format string, args ...any)
}

// Stats are the client's cumulative counters (atomic snapshots).
type Stats struct {
	// Calls counts logical API calls; Attempts counts HTTP attempts, so
	// Attempts-Calls is how many retries the faults cost.
	Calls, Attempts int64
	// Accepted counts logical calls that ended in a 2xx answer.
	Accepted int64
	// Replayed counts 2xx answers served from the server's idempotency
	// store (Idempotency-Replayed: true) — work that did NOT run twice.
	Replayed int64
}

// Client is safe for concurrent use.
type Client struct {
	cfg      Config
	targets  []string
	http     *http.Client
	calls    atomic.Int64
	attempts atomic.Int64
	accepted atomic.Int64
	replayed atomic.Int64
}

// New builds a client; see Config.
func New(cfg Config) *Client {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	h := cfg.HTTP
	if h == nil {
		h = &http.Client{}
	}
	targets := cfg.BaseURLs
	if len(targets) == 0 {
		targets = []string{cfg.BaseURL}
	}
	return &Client{cfg: cfg, targets: targets, http: h}
}

// Stats snapshots the counters.
func (c *Client) Stats() Stats {
	return Stats{
		Calls:    c.calls.Load(),
		Attempts: c.attempts.Load(),
		Accepted: c.accepted.Load(),
		Replayed: c.replayed.Load(),
	}
}

// HTTPError is a non-2xx answer (or a well-formed error envelope): the
// status, the server's error class and message, and its Retry-After
// hint. Unwrap places it in the scherr taxonomy, so errors.Is works the
// same against local and remote failures.
type HTTPError struct {
	Status     int
	Class      string
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("schedclient: server answered %d (%s): %s", e.Status, e.Class, e.Msg)
}

// Unwrap classifies the status for the retry layer: retryable statuses
// are transient, request errors map to their taxonomy class.
func (e *HTTPError) Unwrap() error {
	switch e.Status {
	case http.StatusRequestTimeout, http.StatusConflict, http.StatusTooManyRequests,
		http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return scherr.ErrTransient
	case http.StatusBadRequest:
		return scherr.ErrInvalidSpec
	case http.StatusUnprocessableEntity:
		return scherr.ErrInfeasible
	}
	return nil
}

// RetryAfterHint surfaces the server's Retry-After to retry.Policy.Do.
func (e *HTTPError) RetryAfterHint() time.Duration { return e.RetryAfter }

// IdemKey returns the deterministic idempotency key for the n-th
// logical call of a client with the given seed (exported so chaos
// oracles can reconstruct the key stream).
func IdemKey(seed int64, n int64) string {
	return fmt.Sprintf("sc-%x-%d", uint64(seed)*0x9e3779b97f4a7c15+1, n)
}

// Compare runs one comparison. Retries reuse one idempotency key, so
// the work runs at most once server-side no matter how often the
// network forces a resubmission.
func (c *Client) Compare(ctx context.Context, req serve.CompareRequest) (*serve.CompareResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("schedclient: encoding request: %w", err)
	}
	key := IdemKey(c.cfg.Seed, c.calls.Add(1))
	var resp serve.CompareResponse
	if err := c.do(ctx, "/v1/compare", body, key, &resp); err != nil {
		return nil, err
	}
	c.accepted.Add(1)
	return &resp, nil
}

// Sweep runs one grid sweep. Idempotency comes from the journal name:
// the server serializes concurrent sweeps per journal (409, retried
// here as transient) and resumes completed points on re-POST, so a
// duplicated submission re-runs nothing.
func (c *Client) Sweep(ctx context.Context, req serve.SweepRequest) (*serve.SweepResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("schedclient: encoding request: %w", err)
	}
	c.calls.Add(1)
	var resp serve.SweepResponse
	if err := c.do(ctx, "/v1/sweep", body, "", &resp); err != nil {
		return nil, err
	}
	c.accepted.Add(1)
	return &resp, nil
}

// Readyz probes readiness WITHOUT retry — a truthfulness oracle needs
// the raw answer, 503s included — though a target that cannot even be
// reached yields to the next replica in BaseURLs. The response body is
// decoded best-effort (older servers answered plain text).
func (c *Client) Readyz(ctx context.Context) (int, serve.ReadyzResponse, error) {
	var r serve.ReadyzResponse
	status, data, err := c.get(ctx, "/readyz")
	if err != nil {
		return 0, r, err
	}
	_ = json.Unmarshal(data, &r)
	return status, r, nil
}

// Healthz probes liveness without retry.
func (c *Client) Healthz(ctx context.Context) (int, error) {
	status, _, err := c.get(ctx, "/healthz")
	return status, err
}

// get walks the replica list like do does, but without the retry
// policy: one pass, first target that ANSWERS wins — any status, 503s
// included, so readiness probes stay truthful — while a dead first
// replica no longer blinds every GET helper. Exhausting the targets
// joins the per-target errors.
func (c *Client) get(ctx context.Context, path string) (int, []byte, error) {
	var targetErrs []error
	for _, target := range c.targets {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+path, nil)
		if err != nil {
			return 0, nil, fmt.Errorf("schedclient: %w", err)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			targetErrs = append(targetErrs, fmt.Errorf("%s: %w", target, err))
			if ctx.Err() != nil {
				break // canceled: the remaining targets would fail the same way
			}
			continue
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxBody))
		resp.Body.Close()
		if rerr != nil {
			return resp.StatusCode, nil, fmt.Errorf("schedclient: reading %s: %w", path, rerr)
		}
		return resp.StatusCode, data, nil
	}
	if len(targetErrs) == 1 {
		return 0, nil, fmt.Errorf("schedclient: %w", targetErrs[0])
	}
	return 0, nil, fmt.Errorf("schedclient: %s: all %d targets failed: %w",
		path, len(targetErrs), errors.Join(targetErrs...))
}

// do POSTs body to path under the retry policy, decoding a 2xx answer
// into out. A transport failure, a response that cannot be read or
// parsed (truncation), and every retryable status are transient; the
// rest fail fast with their taxonomy class. With multiple targets
// configured, attempt n walks the replica list; when every attempt is
// exhausted the returned error joins the per-attempt errors
// (errors.Join), so a caller sees what happened at EVERY replica, not
// just the last one.
func (c *Client) do(ctx context.Context, path string, body []byte, idemKey string, out any) error {
	attempt := 0
	var attemptErrs []error
	err := c.cfg.Retry.Do(ctx, func(ctx context.Context) error {
		attempt++
		c.attempts.Add(1)
		target := c.targets[(attempt-1)%len(c.targets)]
		if attempt > 1 {
			c.cfg.Logf("schedclient: %s attempt %d (target %s)", path, attempt, target)
		}
		aerr := c.post(ctx, target, path, body, idemKey, out)
		if aerr != nil {
			attemptErrs = append(attemptErrs, fmt.Errorf("%s: %w", target, aerr))
		}
		return aerr
	})
	if err != nil && len(attemptErrs) > 1 &&
		errors.Is(err, scherr.ErrTransient) && !errors.Is(err, scherr.ErrCanceled) {
		// Replicas exhausted: surface the whole per-attempt chain. The
		// join keeps every attempt reachable through errors.Is/As, so the
		// transient classification (and any HTTPError) still matches.
		return fmt.Errorf("schedclient: %s: all %d attempts failed: %w",
			path, len(attemptErrs), errors.Join(attemptErrs...))
	}
	return err
}

// post is one HTTP attempt against one target.
func (c *Client) post(ctx context.Context, target, path string, body []byte, idemKey string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("schedclient: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if cerr := scherr.FromContext(ctx); cerr != nil {
			return cerr
		}
		// Connection refused, reset mid-request, proxy dropped us:
		// all worth a retry against a recovering server.
		return fmt.Errorf("schedclient: %s: %v: %w", path, err, scherr.ErrTransient)
	}
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	resp.Body.Close()
	if rerr != nil {
		return fmt.Errorf("schedclient: reading %s response: %v: %w", path, rerr, scherr.ErrTransient)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return newHTTPError(resp, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		// A 2xx that does not parse is a truncated or mangled answer,
		// not a server verdict: retry it.
		return fmt.Errorf("schedclient: decoding %s answer (%d bytes): %v: %w", path, len(data), err, scherr.ErrTransient)
	}
	if resp.Header.Get("Idempotency-Replayed") == "true" {
		c.replayed.Add(1)
	}
	return nil
}

// newHTTPError decodes the server's error envelope (best effort) and
// Retry-After header into an HTTPError.
func newHTTPError(resp *http.Response, data []byte) error {
	e := &HTTPError{Status: resp.StatusCode, Msg: string(data)}
	var envelope serve.ErrorBody
	if json.Unmarshal(data, &envelope) == nil && envelope.Class != "" {
		e.Class, e.Msg = envelope.Class, envelope.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// IsTransient reports whether err would be retried by this client's
// classification (exported for oracles and callers branching on it).
func IsTransient(err error) bool { return errors.Is(err, scherr.ErrTransient) }
