package serve

// Fleet-facing surface of one worker (see internal/cluster for the
// router side): worker attribution on every answer, and the peer
// cache-lookup endpoint that lets one worker's rescache hit serve the
// whole fleet.

import (
	"encoding/hex"
	"fmt"
	"net/http"

	"cds"
	"cds/internal/faultmachine"
	"cds/internal/rescache"
	"cds/internal/scherr"
)

// WorkerHeader is the response header naming the worker that produced
// an answer. The router relays it; chaos oracles use it to attribute
// responses to fleet members without trusting addresses.
const WorkerHeader = "Schedd-Worker"

// withWorkerHeader stamps every response with this worker's fleet
// identity. A no-op outside a fleet (no WorkerID configured).
func (s *Server) withWorkerHeader(h http.Handler) http.Handler {
	if s.cfg.WorkerID == "" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(WorkerHeader, s.cfg.WorkerID)
		h.ServeHTTP(w, r)
	})
}

// PeerHits reports how many /v1/compare answers were filled from a
// fleet peer's cache after a local miss.
func (s *Server) PeerHits() int64 { return s.peerHits.Load() }

// handleCacheLookup answers GET /v1/cache/{key}: the comparison
// memoized under the hex-encoded rescache key, or 404 (class
// "cache_miss") when nothing clean is resident. It never computes and
// never queues — a peer asking is about to compute anyway, so this
// endpoint must cost at most a map lookup. The served JSON is a full
// CompareResponse minus the request-specific fields (Target is the
// ASKER's to fill in; this worker only knows the key).
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	raw, err := hex.DecodeString(r.PathValue("key"))
	if err != nil || len(raw) != len(rescache.Key{}) {
		s.writeErr(w, fmt.Errorf("bad cache key %q (want %d hex bytes): %w",
			r.PathValue("key"), len(rescache.Key{}), scherr.ErrInvalidSpec))
		return
	}
	var key rescache.Key
	copy(key[:], raw)
	cmp, ok := cds.LookupComparisonByKey(key)
	if !ok {
		WriteError(w, http.StatusNotFound, "no resident comparison for key", "cache_miss")
		return
	}
	s.cfg.Logf("serve: cache lookup hit for %s", r.PathValue("key")[:8])
	s.writeCompare(w, "", cmp, faultmachine.Stats{}, 1, "local", nil)
}
