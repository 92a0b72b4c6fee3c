// Command schedrouter fronts a fleet of schedd workers with a
// failure-aware consistent-hash router.
//
//	schedrouter -addr :8079 \
//	    -workers w0=127.0.0.1:7100,w1=127.0.0.1:7101,w2=127.0.0.1:7102
//
// Membership is either the static -workers list or a -workers-file
// (one id=host:port per line, # comments); with a file, SIGHUP re-reads
// it and swaps the fleet in place — joiners start probing immediately,
// leavers' probe loops stop, kept workers carry their breaker state,
// and only the key ranges owned by leavers move on the ring. A file
// that fails to parse keeps the current membership.
//
// Requests hash by content — /v1/compare by the workload's partition
// fingerprint, /v1/sweep by journal name — so each key range sticks to
// one worker and its warm caches/journals. Workers are health-checked
// through their truthful /readyz (jittered probes; -eject-threshold
// consecutive failures eject, -readmit-cooldown paces half-open
// readmission); a dead worker's requests fail over along the ring with
// the same Idempotency-Key so replay stores dedupe; draining workers
// (SIGTERM) leave the ring without dropping in-flight work.
//
// Endpoints: POST /v1/compare, POST /v1/sweep (forwarded),
// GET /v1/ring (membership + health snapshot), GET /healthz,
// GET /readyz (503 once zero workers are routable).
//
// Exit status: 0 after a clean SIGTERM/SIGINT drain, 1 on errors, 2 on
// flag errors.
package main

import (
	"os"

	"cds/internal/daemon"
)

func main() {
	os.Exit(daemon.Schedrouter(os.Args[1:], os.Stderr))
}
