package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"cds"
	"cds/internal/rescache"
	"cds/internal/workloads"
)

// postCompare drives one /v1/compare through the full middleware chain.
func postCompare(t *testing.T, s *Server, body string) (*httptest.ResponseRecorder, CompareResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/compare", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var resp CompareResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding compare answer: %v", err)
		}
	}
	return rec, resp
}

// TestReadyzReportsWorkerIdentity pins the fleet-facing readyz fields:
// a worker with an ID reports who it is (ID, PID, uptime, journal dir),
// and a plain single-daemon server omits them.
func TestReadyzReportsWorkerIdentity(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{WorkerID: "w7", JournalDir: dir})
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	s.ready.Store(true)
	s.Handler().ServeHTTP(rec, req)
	var rz ReadyzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatalf("decoding readyz: %v", err)
	}
	if rz.WorkerID != "w7" || rz.PID != os.Getpid() || rz.JournalDir != dir {
		t.Fatalf("readyz identity = %+v, want worker w7 pid %d dir %s", rz, os.Getpid(), dir)
	}
	if rec.Header().Get(WorkerHeader) != "w7" {
		t.Fatalf("missing %s header: %v", WorkerHeader, rec.Header())
	}

	// No fleet, no identity noise.
	plain := New(Config{})
	plain.ready.Store(true)
	rec = httptest.NewRecorder()
	plain.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if strings.Contains(rec.Body.String(), "worker_id") {
		t.Fatalf("single-daemon readyz leaks fleet fields: %s", rec.Body.String())
	}
	if rec.Header().Get(WorkerHeader) != "" {
		t.Fatal("single-daemon server stamps a worker header")
	}
}

// TestCacheLookupEndpoint pins GET /v1/cache/{key}: a computed
// comparison is servable by key, a cold key answers 404 cache_miss, and
// a malformed key answers 400.
func TestCacheLookupEndpoint(t *testing.T) {
	s := New(Config{WorkerID: "w0"})
	// Compute (and thereby cache) one comparison through the API.
	rec, _ := postCompare(t, s, `{"workload":"E1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("compare = %d: %s", rec.Code, rec.Body.String())
	}
	e, err := workloads.ByName("E1")
	if err != nil {
		t.Fatal(err)
	}
	key := cds.ComparisonKey(e.Arch, e.Part)

	req := httptest.NewRequest(http.MethodGet, "/v1/cache/"+hex.EncodeToString(key[:]), nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("cache lookup = %d: %s", rec.Code, rec.Body.String())
	}
	var resp CompareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding cache answer: %v", err)
	}
	if !resp.Cached || resp.CacheSource != "local" || resp.WorkerID != "w0" {
		t.Fatalf("cache answer = %+v, want cached local from w0", resp)
	}
	if resp.Target != "" {
		t.Fatalf("cache answer invented a target %q (the asker fills it)", resp.Target)
	}

	// Cold key: 404 with the cache_miss class.
	var cold rescache.Key
	cold[0] = 0xFF
	req = httptest.NewRequest(http.MethodGet, "/v1/cache/"+hex.EncodeToString(cold[:]), nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "cache_miss") {
		t.Fatalf("cold key = %d %s, want 404 cache_miss", rec.Code, rec.Body.String())
	}

	// Malformed key: 400.
	req = httptest.NewRequest(http.MethodGet, "/v1/cache/zzzz", nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad key = %d, want 400", rec.Code)
	}
}

// TestCompareUsesPeerFillOnLocalMiss pins the peer-fill path: a local
// cache miss consults the PeerFill seam and relays the peer's answer
// (attributed to both workers) without computing or queueing.
func TestCompareUsesPeerFillOnLocalMiss(t *testing.T) {
	asked := 0
	peer := func(ctx context.Context, fp [32]byte, key rescache.Key) (*CompareResponse, bool) {
		asked++
		return &CompareResponse{
			WorkerID: "w-peer",
			CDS:      SchedulerResult{TotalCycles: 4242},
			RF:       3,
		}, true
	}
	s := New(Config{WorkerID: "w-self", PeerFill: peer})
	// An FB override no other test uses guarantees a local miss.
	rec, resp := postCompare(t, s, fmt.Sprintf(`{"workload":"E1","fb_bytes":%d}`, freshFB(999424)))
	if rec.Code != http.StatusOK {
		t.Fatalf("compare = %d: %s", rec.Code, rec.Body.String())
	}
	if asked != 1 {
		t.Fatalf("peer asked %d times, want 1", asked)
	}
	if !resp.Cached || resp.CacheSource != "peer" || resp.CacheWorker != "w-peer" || resp.WorkerID != "w-self" {
		t.Fatalf("peer-filled answer = %+v, want cached peer answer from w-peer via w-self", resp)
	}
	if resp.Target != "E1" || resp.CDS.TotalCycles != 4242 {
		t.Fatalf("answer = %+v, want asker-filled target E1 with the peer's cycles", resp)
	}
	if got := rec.Header().Get("Server-Timing"); got != "cache;desc=peer" {
		t.Fatalf("Server-Timing = %q, want cache;desc=peer", got)
	}
	if s.PeerHits() != 1 {
		t.Fatalf("PeerHits = %d, want 1", s.PeerHits())
	}

	// A peer miss falls through to local compute; the answer is fresh,
	// not cached, and attributed to this worker alone.
	misses := 0
	s2 := New(Config{WorkerID: "w-self", PeerFill: func(context.Context, [32]byte, rescache.Key) (*CompareResponse, bool) {
		misses++
		return nil, false
	}})
	rec, resp = postCompare(t, s2, fmt.Sprintf(`{"workload":"E1","fb_bytes":%d}`, freshFB(998912)))
	if rec.Code != http.StatusOK {
		t.Fatalf("compare after peer miss = %d: %s", rec.Code, rec.Body.String())
	}
	if misses != 1 {
		t.Fatalf("peer consulted %d times, want 1", misses)
	}
	if resp.Cached || resp.CacheSource != "" || resp.WorkerID != "w-self" {
		t.Fatalf("computed answer = %+v, want uncached from w-self", resp)
	}
}

// TestCompareCountsEachRequestOnce pins the comparison cache's
// per-request accounting: a hit is one hit, a peer fill is one miss
// plus one peer fill, and a local compute is one miss — the lookup that
// precedes a fill or a compute does not count a second miss.
func TestCompareCountsEachRequestOnce(t *testing.T) {
	counters := func() rescache.Counters { return rescache.Snapshot()["cds.compare_all"] }
	expect := func(what string, before rescache.Counters, hits, misses, peerFills int64) {
		t.Helper()
		now := counters()
		if d := now.Hits - before.Hits; d != hits {
			t.Errorf("%s: hits moved %d, want %d", what, d, hits)
		}
		if d := now.Misses - before.Misses; d != misses {
			t.Errorf("%s: misses moved %d, want %d", what, d, misses)
		}
		if d := now.PeerFills - before.PeerFills; d != peerFills {
			t.Errorf("%s: peer fills moved %d, want %d", what, d, peerFills)
		}
	}
	// FB overrides no other test uses guarantee local misses.
	computed := fmt.Sprintf(`{"workload":"E1","fb_bytes":%d}`, freshFB(997888))
	filled := fmt.Sprintf(`{"workload":"E1","fb_bytes":%d}`, freshFB(997376))

	s := New(Config{WorkerID: "w-self"})
	before := counters()
	if rec, resp := postCompare(t, s, computed); rec.Code != http.StatusOK || resp.Cached {
		t.Fatalf("local compute = %d (cached=%v): %s", rec.Code, resp.Cached, rec.Body.String())
	}
	expect("local compute", before, 0, 1, 0)

	before = counters()
	if rec, resp := postCompare(t, s, computed); rec.Code != http.StatusOK || resp.CacheSource != "local" {
		t.Fatalf("hit = %d (source %q): %s", rec.Code, resp.CacheSource, rec.Body.String())
	}
	expect("hit", before, 1, 0, 0)

	peer := New(Config{WorkerID: "w-self", PeerFill: func(context.Context, [32]byte, rescache.Key) (*CompareResponse, bool) {
		return &CompareResponse{WorkerID: "w-peer"}, true
	}})
	before = counters()
	if rec, resp := postCompare(t, peer, filled); rec.Code != http.StatusOK || resp.CacheSource != "peer" {
		t.Fatalf("peer fill = %d (source %q): %s", rec.Code, resp.CacheSource, rec.Body.String())
	}
	expect("peer fill", before, 0, 1, 1)
}

// TestTracedCompareSkipsPeerFill pins that ?trace=1 requests never take
// the peer path: analytics need the locally computed comparison.
func TestTracedCompareSkipsPeerFill(t *testing.T) {
	s := New(Config{WorkerID: "w-self", PeerFill: func(context.Context, [32]byte, rescache.Key) (*CompareResponse, bool) {
		t.Error("traced request consulted the peer cache")
		return nil, false
	}})
	req := httptest.NewRequest(http.MethodPost, "/v1/compare?trace=1",
		bytes.NewReader([]byte(`{"workload":"E1","fb_bytes":998400}`)))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("traced compare = %d: %s", rec.Code, rec.Body.String())
	}
	var resp CompareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Traces) == 0 {
		t.Fatal("traced compare returned no analytics")
	}
}
