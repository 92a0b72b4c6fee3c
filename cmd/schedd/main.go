// Command schedd is the long-lived scheduling daemon: the one-shot CLIs
// (cds, experiments, sweep) as a fault-tolerant HTTP/JSON service. It
// serves scheduler comparisons and grid sweeps with retry/backoff over
// transient faults, per-target circuit breaking, bounded-queue admission
// control (load shedding with 429 + Retry-After), crash-safe sweep
// journaling and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST /v1/compare  {"workload":"MPEG"} | {"workload":"MPEG","arch":"M2","fb_bytes":2048} | {"spec":{...}}
//	                  ?trace=1 adds per-scheduler timeline analytics to the answer;
//	                  an Idempotency-Key header makes duplicated submissions replay
//	                  instead of double-running
//	POST /v1/sweep    {"archs":["M1/4","M1"],"workloads":["MPEG","E1"],"journal":"nightly"}
//	POST /v1/stream   {"log":{...}} — plan an arrival log incrementally: segment
//	                  schedules are memoized under content fingerprints across
//	                  requests (bound with -stream-memo), both streamed executions
//	                  (serialized and prefetching) are verified before answering
//	GET  /debug/traces  bounded ring of recently traced comparisons (?full=1 adds Chrome payloads)
//	GET  /metrics     plain-text counters: admission, result-cache hit/miss/evict
//	                  (rescache), and per-tenant queue depths in tenant mode
//	GET  /healthz     process liveness
//	GET  /readyz      load-balancer readiness: 503 while draining OR while the
//	                  admission queue is saturated, with queue depth/capacity
//	                  in the JSON body
//
// Usage:
//
//	schedd [-addr :8080] [-debug-addr localhost:6060] [-workers 2] [-queue 8] [-request-timeout 30s]
//	       [-drain-timeout 10s] [-journal-dir DIR] [-stream-memo 256]
//	       [-tenants "video:weight=3,budget=4;radar:weight=1"]
//	       [-retry-attempts 4] [-retry-base 10ms] [-retry-seed 1]
//	       [-breaker-threshold 5] [-breaker-cooldown 5s]
//	       [-fault-seed N -fault-stall-pct P -fault-fail-every K -fault-fail-runs R]
//	       [-sweep-point-delay D]
//
// The -fault-* flags enable chaos mode: every comparison's CDS schedule
// additionally executes on the functional machine under deterministic
// fault injection (internal/faultmachine), exercising the retry path in
// production configuration; -sweep-point-delay paces journaled sweeps so
// the chaos harness (cmd/chaos) can land a SIGKILL at a chosen journal
// record count. SIGTERM (and SIGINT) drain gracefully: readiness flips
// immediately, -drain-grace holds a 503-on-/readyz window for load
// balancers (clamped to half of -drain-timeout so the drain itself
// always keeps time), in-flight requests finish within -drain-timeout,
// and the exit status is 0 exactly when everything drained.
//
// -tenants turns on multi-tenant admission: requests name their tenant
// in the X-Tenant header, each tenant gets its own admission budget
// (its own 429 + Retry-After sized to the backlog) and execution slots
// are granted across tenants by weighted fair queueing, mirroring the
// array-level tenant interleaver (internal/tenant, cmd/tenants).
//
// The implementation lives in internal/daemon so the chaos harness can
// re-execute the identical daemon as a supervised child process.
package main

import (
	"os"

	"cds/internal/daemon"
)

func main() {
	os.Exit(daemon.Schedd(os.Args[1:], os.Stderr))
}
