package chaos

// Fleet drills: a schedrouter child fronting N schedd worker children,
// all real processes supervised through the same re-exec seam as the
// single-daemon scenarios. The router-* plans verify the cluster-level
// recovery contracts — failover absorbs a SIGKILLed owner, draining
// workers leave the ring without dropping in-flight work, and one
// worker's result cache serves the whole fleet — with the same
// reproducibility rule as everything else here: (plan, seed) derives
// the entire fault schedule, and the harness predicts routing from its
// own copy of the ring, so a disagreement between prediction and
// observation is itself a finding.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cds/internal/cluster"
	"cds/internal/serve"
	"cds/internal/workloads"
)

// fleetHarness is one running fleet: N schedd workers plus the router.
type fleetHarness struct {
	r       *runner
	ids     []string // "w0".."wN-1"
	addrs   []string // worker addresses, same order
	dirs    []string // per-worker journal dirs, same order
	wflags  [][]string
	workers []*Child
	router  *Child
	// ring is the harness's own copy of the router's ring (same IDs,
	// same vnodes): routing predictions come from here.
	ring  *cluster.Ring
	peers string
}

// startFleet launches p.FleetWorkers schedd children (each with its own
// journal dir, a worker identity and the full peer list for cache
// fills) plus a schedrouter child, then waits until the router reports
// every worker as a routing candidate.
func (r *runner) startFleet(ctx context.Context, p Plan, workerExtra []string) (*fleetHarness, error) {
	if p.FleetWorkers <= 0 {
		return nil, fmt.Errorf("chaos: plan %s has no fleet size", p.Name)
	}
	fl := &fleetHarness{r: r}
	for i := 0; i < p.FleetWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		addr, err := FreeAddr()
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(r.dir, id)
		// A stale journal from an earlier run would resume instead of
		// running; fleet drills always start from clean worker dirs.
		os.RemoveAll(dir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		fl.ids = append(fl.ids, id)
		fl.addrs = append(fl.addrs, addr)
		fl.dirs = append(fl.dirs, dir)
	}
	parts := make([]string, len(fl.ids))
	for i := range fl.ids {
		parts[i] = fl.ids[i] + "=" + fl.addrs[i]
	}
	fl.peers = strings.Join(parts, ",")
	fl.ring = cluster.NewRing(cluster.DefaultVnodes, fl.ids...)

	ok := false
	defer func() {
		if !ok {
			fl.Stop()
		}
	}()
	for i := range fl.ids {
		flags := append([]string{
			"-journal-dir", fl.dirs[i],
			"-worker-id", fl.ids[i],
			"-peers", fl.peers,
		}, workerExtra...)
		fl.wflags = append(fl.wflags, flags)
		c, err := r.startOn(ctx, fl.addrs[i], flags...)
		if err != nil {
			return nil, err
		}
		fl.workers = append(fl.workers, c)
	}

	// The router always re-executes the current binary (daemon.ChildEnv
	// = schedrouter), even when -schedd points workers at an external
	// daemon build.
	raddr, err := FreeAddr()
	if err != nil {
		return nil, err
	}
	rsup := &Supervisor{Program: "schedrouter", Logf: r.logf}
	rc, err := rsup.Start(raddr,
		"-workers", fl.peers,
		"-probe-interval", "25ms",
		"-probe-timeout", "500ms",
		"-eject-threshold", "2",
		"-readmit-cooldown", "250ms",
		"-failover-attempts", "0",
		"-seed", fmt.Sprint(p.Seed),
		"-drain-timeout", "5s",
	)
	if err != nil {
		return nil, err
	}
	fl.router = rc
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := rc.WaitReady(rctx); err != nil {
		return nil, err
	}
	if err := fl.waitEligible(ctx, len(fl.ids), 10*time.Second); err != nil {
		return nil, err
	}
	ok = true
	return fl, nil
}

// Stop SIGKILLs and reaps every fleet process.
func (fl *fleetHarness) Stop() {
	if fl.router != nil {
		fl.router.Stop()
	}
	for _, c := range fl.workers {
		if c != nil {
			c.Stop()
		}
	}
}

// restart relaunches worker i on its original address with its original
// flags — same identity, same journal dir, fresh process.
func (fl *fleetHarness) restart(ctx context.Context, i int) (*Child, error) {
	c, err := fl.r.startOn(ctx, fl.addrs[i], fl.wflags[i]...)
	if err != nil {
		return nil, err
	}
	fl.workers[i] = c
	return c, nil
}

func (fl *fleetHarness) base() string { return "http://" + fl.router.Addr }

func (fl *fleetHarness) index(id string) int {
	for i, x := range fl.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// snapshot reads the router's /v1/ring fleet view.
func (fl *fleetHarness) snapshot(ctx context.Context) (cluster.RingStatus, error) {
	var snap cluster.RingStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fl.base()+"/v1/ring", nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

func workerState(snap cluster.RingStatus, id string) cluster.WorkerStatus {
	for _, ws := range snap.Workers {
		if ws.ID == id {
			return ws
		}
	}
	return cluster.WorkerStatus{}
}

// waitEligible polls the router until n workers are routing candidates.
func (fl *fleetHarness) waitEligible(ctx context.Context, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		snap, err := fl.snapshot(ctx)
		if err == nil && snap.Eligible == n {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap, _ := fl.snapshot(ctx)
	return fmt.Errorf("chaos: router never saw %d eligible workers (last: %d of %d)",
		n, snap.Eligible, len(snap.Workers))
}

// waitWorkerStatus polls the router's fleet view until worker id is in
// the wanted state, returning the matching snapshot row.
func (fl *fleetHarness) waitWorkerStatus(ctx context.Context, id, want string, timeout time.Duration) (cluster.WorkerStatus, error) {
	deadline := time.Now().Add(timeout)
	var last cluster.WorkerStatus
	for time.Now().Before(deadline) {
		snap, err := fl.snapshot(ctx)
		if err == nil {
			last = workerState(snap, id)
			if last.State == want {
				return last, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return last, fmt.Errorf("chaos: worker %s never became %q at the router (last %q)", id, want, last.State)
}

// compareKeyFor resolves a workload name to its router routing key —
// the partition fingerprint, exactly as compareRoutingKey does.
func compareKeyFor(name string) ([]byte, error) {
	e, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return cluster.CompareKey(e.Part.Fingerprint()), nil
}

// firstOther returns the first worker on key's ring walk that is not
// excluded — the exact replica a single ejection must shift keys to.
func (fl *fleetHarness) firstOther(key []byte, exclude string) string {
	for _, id := range fl.ring.Lookup(key, 0) {
		if id != exclude {
			return id
		}
	}
	return ""
}

// postCompareVia POSTs one compare (optionally idempotency-keyed) and
// decodes the answer when it is a 200.
func postCompareVia(ctx context.Context, base string, creq serve.CompareRequest, idemKey string) (int, http.Header, serve.CompareResponse, error) {
	var out serve.CompareResponse
	body, err := json.Marshal(creq)
	if err != nil {
		return 0, nil, out, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/compare", bytes.NewReader(body))
	if err != nil {
		return 0, nil, out, err
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return resp.StatusCode, resp.Header, out, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			return resp.StatusCode, resp.Header, out, fmt.Errorf("chaos: decoding compare answer: %w", err)
		}
	}
	return resp.StatusCode, resp.Header, out, nil
}

func rowsClean(resp serve.SweepResponse) bool {
	for _, row := range resp.Rows {
		if row.Err != "" {
			return false
		}
	}
	return true
}

// routerKillWorker: route traffic through the fleet, SIGKILL the ring
// owner of an in-flight journaled sweep, and verify the cluster
// contracts — the sweep is absorbed by failover to the exact next
// replica, the dead worker is ejected and only its keys move, a restart
// readmits the same identity under a new PID, and a re-posted sweep
// resumes the dead worker's journal byte-identically.
func (r *runner) routerKillWorker(ctx context.Context, p Plan) (*Report, error) {
	fl, err := r.startFleet(ctx, p, []string{"-sweep-point-delay", p.PointDelay.String()})
	if err != nil {
		return nil, err
	}
	defer fl.Stop()
	rep := &Report{}

	// Warm routing: every workload's compare answered by the exact
	// worker the harness's own ring predicts, in one attempt. This is
	// the cross-process determinism oracle — the router and the harness
	// compute the ring independently and must agree.
	warm := oracle("warm-routing", true, "all %d workloads routed to their predicted ring owners in one attempt", len(p.Workloads))
	for _, name := range p.Workloads {
		key, err := compareKeyFor(name)
		if err != nil {
			return nil, err
		}
		want, _ := fl.ring.Owner(key)
		status, hdr, cresp, err := postCompareVia(ctx, fl.base(), serve.CompareRequest{Workload: name}, "")
		switch {
		case err != nil || status != http.StatusOK:
			warm = oracle("warm-routing", false, "compare %s: status=%d err=%v", name, status, err)
		case cresp.WorkerID != want:
			warm = oracle("warm-routing", false, "compare %s answered by %s, ring predicts %s", name, cresp.WorkerID, want)
		case hdr.Get(cluster.AttemptsHeader) != "1":
			warm = oracle("warm-routing", false, "compare %s took %s attempts with a healthy fleet", name, hdr.Get(cluster.AttemptsHeader))
		}
		if !warm.OK {
			break
		}
	}
	rep.Oracles = append(rep.Oracles, warm)

	// Exactly-once through the router: the same Idempotency-Key twice
	// lands on the same ring owner, and the second answer must be the
	// replay store's, not a second run.
	idemKey := fmt.Sprintf("chaos-fleet-%d", p.Seed)
	_, _, _, err1 := postCompareVia(ctx, fl.base(), serve.CompareRequest{Workload: p.Workloads[0]}, idemKey)
	_, hdr2, _, err2 := postCompareVia(ctx, fl.base(), serve.CompareRequest{Workload: p.Workloads[0]}, idemKey)
	rep.Oracles = append(rep.Oracles, oracle("idempotent-replay-via-router",
		err1 == nil && err2 == nil && hdr2.Get("Idempotency-Replayed") == "true",
		"double POST with one key through the router: errs=%v/%v replayed=%q",
		err1, err2, hdr2.Get("Idempotency-Replayed")))

	// A journaled sweep routed to its ring owner; the kill lands there.
	const jname = "rk"
	skey := cluster.SweepKey(jname, nil)
	walk := fl.ring.Lookup(skey, 2)
	ownerID, replicaID := walk[0], walk[1]
	oIdx := fl.index(ownerID)
	jpath := filepath.Join(fl.dirs[oIdx], jname+".jsonl")

	type ans struct {
		status int
		body   []byte
		hdr    http.Header
		err    error
	}
	ansc := make(chan ans, 1)
	go func() {
		status, body, hdr, err := rawPost(ctx, fl.base()+"/v1/sweep", sweepReq(p, jname))
		ansc <- ans{status, body, hdr, err}
	}()
	if _, err := WaitJournalRecords(ctx, fl.workers[oIdx], jpath, p.KillAtRecord); err != nil {
		return nil, err
	}
	oldPID := fl.workers[oIdx].Pid()
	r.logf("chaos: router-kill-worker: SIGKILL owner %s (pid %d) at >=%d journal records", ownerID, oldPID, p.KillAtRecord)
	if err := fl.workers[oIdx].Kill(); err != nil {
		return nil, err
	}
	fl.workers[oIdx].Stop()

	// The client's sweep must still be answered — in full, by the next
	// replica on the ring, on the second attempt, fresh (the replica has
	// no journal to resume).
	a := <-ansc
	var sresp serve.SweepResponse
	sweepOK := a.err == nil && a.status == http.StatusOK &&
		json.Unmarshal(a.body, &sresp) == nil &&
		len(sresp.Rows) == points(p) && sresp.Resumed == 0 && rowsClean(sresp)
	rep.Oracles = append(rep.Oracles, oracle("sweep-failover-served",
		sweepOK && a.hdr.Get(serve.WorkerHeader) == replicaID && a.hdr.Get(cluster.AttemptsHeader) == "2",
		"sweep under owner SIGKILL: err=%v status=%d rows=%d resumed=%d worker=%q attempts=%q (want 200, %d fresh rows from %s in 2 attempts)",
		a.err, a.status, len(sresp.Rows), sresp.Resumed, a.hdr.Get(serve.WorkerHeader),
		a.hdr.Get(cluster.AttemptsHeader), points(p), replicaID))

	postCrash, err := os.ReadFile(jpath)
	if err != nil {
		return nil, fmt.Errorf("chaos: reading post-crash journal: %w", err)
	}
	done, other := CountRecords(postCrash)
	rep.Oracles = append(rep.Oracles, oracle("kill-landed",
		done >= 1 && done < points(p) && other == 0,
		"SIGKILL left %d done + %d other records of %d points on %s", done, other, points(p), ownerID))

	_, ejErr := fl.waitWorkerStatus(ctx, ownerID, "ejected", 5*time.Second)
	rep.Oracles = append(rep.Oracles, oracle("owner-ejected", ejErr == nil,
		"dead owner at the router: %v", ejErr))

	// Ring affinity after one ejection: keys owned by survivors stay
	// put; only the dead owner's keys move, and they move to the exact
	// next replica on their walk.
	aff := oracle("ring-affinity", true, "after ejecting %s every key stayed with its predicted worker (moved keys went to their next replica)", ownerID)
	for _, name := range p.Workloads {
		key, err := compareKeyFor(name)
		if err != nil {
			return nil, err
		}
		want, _ := fl.ring.Owner(key)
		if want == ownerID {
			want = fl.firstOther(key, ownerID)
		}
		status, hdr, cresp, err := postCompareVia(ctx, fl.base(), serve.CompareRequest{Workload: name}, "")
		if err != nil || status != http.StatusOK || cresp.WorkerID != want || hdr.Get(cluster.AttemptsHeader) != "1" {
			aff = oracle("ring-affinity", false,
				"compare %s after ejection: status=%d err=%v worker=%q attempts=%q, want %s in 1 attempt",
				name, status, err, cresp.WorkerID, hdr.Get(cluster.AttemptsHeader), want)
			break
		}
	}
	rep.Oracles = append(rep.Oracles, aff)

	// Restart the dead owner on its old address: same worker identity,
	// new process, readmitted by the half-open probe after the cooldown.
	c2, err := fl.restart(ctx, oIdx)
	if err != nil {
		return nil, err
	}
	ws, rmErr := fl.waitWorkerStatus(ctx, ownerID, "ready", 5*time.Second)
	rep.Oracles = append(rep.Oracles, oracle("readmit-restart-identity",
		rmErr == nil && ws.PID == c2.Pid() && ws.PID != oldPID,
		"restarted owner at the router: err=%v state=%q pid=%d (want ready as %s, pid %d != killed pid %d)",
		rmErr, ws.State, ws.PID, ownerID, c2.Pid(), oldPID))

	// Re-post the sweep: ring affinity routes it home to the readmitted
	// owner, which must resume its own crash journal — the fleet-level
	// no-lost-accepted-work proof.
	cl := r.client(fl.router.Addr, p.Seed)
	resp2, serr := cl.Sweep(ctx, sweepReq(p, jname))
	final, err := os.ReadFile(jpath)
	if err != nil {
		return nil, fmt.Errorf("chaos: reading final journal: %w", err)
	}
	rep.Oracles = append(rep.Oracles,
		oracle("resume-accepted", serr == nil, "re-POST through the router after restart: err=%v", serr),
		ResumeIdentity(postCrash, final),
		NoLostAcceptedWork(done, resp2, points(p)),
	)
	if serr == nil {
		rep.Oracles = append(rep.Oracles, RowsIdentity(resp2.Rows, p.Archs, p.Workloads, 2))
	}
	return rep, nil
}

// routerDrainRebalance: SIGTERM one worker mid-sweep and verify the
// fleet-level drain contract — the router marks it draining (off the
// candidate list) while its in-flight sweep runs to completion and is
// relayed intact, the worker exits 0, nothing re-ran elsewhere, and
// exactly its keys rebalance to their next replicas.
func (r *runner) routerDrainRebalance(ctx context.Context, p Plan) (*Report, error) {
	fl, err := r.startFleet(ctx, p, []string{
		"-sweep-point-delay", p.PointDelay.String(),
		"-drain-timeout", "20s",
		"-drain-grace", "2s",
	})
	if err != nil {
		return nil, err
	}
	defer fl.Stop()
	rep := &Report{}

	drainID := fmt.Sprintf("w%d", p.DrainWorker)
	dIdx := p.DrainWorker
	// A journal name the drain target owns, so the in-flight sweep is
	// the drain target's to finish.
	jname := ""
	for i := 0; ; i++ {
		if i > 1000 {
			return nil, fmt.Errorf("chaos: no journal name owned by %s in 1000 tries", drainID)
		}
		jname = fmt.Sprintf("dr-%d", i)
		if owner, _ := fl.ring.Owner(cluster.SweepKey(jname, nil)); owner == drainID {
			break
		}
	}
	jpath := filepath.Join(fl.dirs[dIdx], jname+".jsonl")

	type ans struct {
		status int
		body   []byte
		hdr    http.Header
		err    error
	}
	ansc := make(chan ans, 1)
	go func() {
		status, body, hdr, err := rawPost(ctx, fl.base()+"/v1/sweep", sweepReq(p, jname))
		ansc <- ans{status, body, hdr, err}
	}()
	if _, err := WaitJournalRecords(ctx, fl.workers[dIdx], jpath, p.KillAtRecord); err != nil {
		return nil, err
	}
	r.logf("chaos: router-drain-rebalance: SIGTERM %s (pid %d) mid-sweep", drainID, fl.workers[dIdx].Pid())
	if err := fl.workers[dIdx].Term(); err != nil {
		return nil, err
	}

	// The router must observe the drain while the worker still lives:
	// its probes read the truthful 503 "draining" readyz.
	drainSeen := oracle("drain-visible-at-router", false,
		"router never marked %s draining before it exited", drainID)
	for !fl.workers[dIdx].Exited() {
		snap, err := fl.snapshot(ctx)
		if err == nil && workerState(snap, drainID).State == "draining" {
			drainSeen = oracle("drain-visible-at-router", true,
				"router marked %s draining (%d candidates left) while its sweep was still in flight",
				drainID, snap.Eligible)
			break
		}
		time.Sleep(3 * time.Millisecond)
	}
	rep.Oracles = append(rep.Oracles, drainSeen)

	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	code, _ := fl.workers[dIdx].WaitExit(wctx)
	cancel()
	a := <-ansc

	var sresp serve.SweepResponse
	served := a.err == nil && a.status == http.StatusOK &&
		json.Unmarshal(a.body, &sresp) == nil &&
		len(sresp.Rows) == points(p) && rowsClean(sresp)
	rep.Oracles = append(rep.Oracles,
		oracle("inflight-sweep-served",
			served && a.hdr.Get(serve.WorkerHeader) == drainID && a.hdr.Get(cluster.AttemptsHeader) == "1",
			"in-flight sweep during drain: err=%v status=%d rows=%d worker=%q attempts=%q (want 200 with all %d points from %s, no failover)",
			a.err, a.status, len(sresp.Rows), a.hdr.Get(serve.WorkerHeader), a.hdr.Get(cluster.AttemptsHeader), points(p), drainID),
		oracle("drain-exit-clean", code == 0, "exit code %d after SIGTERM (want 0: everything drained)", code),
	)

	// No shadow re-run: the drained sweep's journal exists only in the
	// drained worker's dir — failover did not duplicate accepted work.
	shadow := ""
	for i := range fl.dirs {
		if i == dIdx {
			continue
		}
		if _, err := os.Stat(filepath.Join(fl.dirs[i], jname+".jsonl")); err == nil {
			shadow = fl.ids[i]
			break
		}
	}
	rep.Oracles = append(rep.Oracles, oracle("no-shadow-rerun", shadow == "",
		"journal %s re-ran on %q (want: only on the draining worker)", jname, shadow))

	// Rebalance is exact: the drained worker's keys move to the next
	// replica on their walks; everyone else's keys stay home.
	reb := oracle("rebalance-exact", true,
		"after draining %s only its keys moved, each to its next replica", drainID)
	for _, name := range p.Workloads {
		key, err := compareKeyFor(name)
		if err != nil {
			return nil, err
		}
		want, _ := fl.ring.Owner(key)
		if want == drainID {
			want = fl.firstOther(key, drainID)
		}
		status, hdr, cresp, err := postCompareVia(ctx, fl.base(), serve.CompareRequest{Workload: name}, "")
		if err != nil || status != http.StatusOK || cresp.WorkerID != want || hdr.Get(cluster.AttemptsHeader) != "1" {
			reb = oracle("rebalance-exact", false,
				"compare %s after drain: status=%d err=%v worker=%q attempts=%q, want %s in 1 attempt",
				name, status, err, cresp.WorkerID, hdr.Get(cluster.AttemptsHeader), want)
			break
		}
	}
	rep.Oracles = append(rep.Oracles, reb)
	return rep, nil
}

// routerSplitCache: compute one comparison on its ring owner, then ask
// every other worker for the same point directly and verify they serve
// it from the owner's cache over GET /v1/cache/{key} — one worker's
// computation, fleet-wide answers, all byte-equal.
func (r *runner) routerSplitCache(ctx context.Context, p Plan) (*Report, error) {
	fl, err := r.startFleet(ctx, p, nil)
	if err != nil {
		return nil, err
	}
	defer fl.Stop()
	rep := &Report{}

	creq := serve.CompareRequest{Workload: p.CacheWorkload, Arch: p.CacheArch}
	key, err := compareKeyFor(p.CacheWorkload)
	if err != nil {
		return nil, err
	}
	ownerID, _ := fl.ring.Owner(key)

	// core is the scheduler-comparison payload that must be identical no
	// matter which worker answered.
	type core struct {
		Basic, DS, CDS serve.SchedulerResult
		RF             int
		DTBytes        int
	}
	coreOf := func(cr serve.CompareResponse) core {
		return core{cr.Basic, cr.DS, cr.CDS, cr.RF, cr.DTBytes}
	}

	status, _, r1, err := postCompareVia(ctx, fl.base(), creq, "")
	rep.Oracles = append(rep.Oracles, oracle("computed-at-owner",
		err == nil && status == http.StatusOK && r1.WorkerID == ownerID && !r1.Cached,
		"first compare via router: status=%d err=%v worker=%q cached=%v source=%q (want fresh compute on owner %s)",
		status, err, r1.WorkerID, r1.Cached, r1.CacheSource, ownerID))

	// Every non-owner, asked DIRECTLY (bypassing the router), must fill
	// from the owner's cache: a local miss, a peer hit, no recompute.
	for i, id := range fl.ids {
		if id == ownerID {
			continue
		}
		status, hdr, ri, err := postCompareVia(ctx, "http://"+fl.addrs[i], creq, "")
		rep.Oracles = append(rep.Oracles, oracle("peer-fill-"+id,
			err == nil && status == http.StatusOK && ri.Cached &&
				ri.CacheSource == "peer" && ri.CacheWorker == ownerID && ri.WorkerID == id &&
				hdr.Get("Server-Timing") == "cache;desc=peer" && coreOf(ri) == coreOf(r1),
			"direct compare on %s: status=%d err=%v cached=%v source=%q cache_worker=%q timing=%q identical=%v (want a peer fill from %s)",
			id, status, err, ri.Cached, ri.CacheSource, ri.CacheWorker,
			hdr.Get("Server-Timing"), coreOf(ri) == coreOf(r1), ownerID))
	}

	// The owner itself answers from its local cache — the peer fills did
	// not disturb it.
	status3, _, r3, err := postCompareVia(ctx, "http://"+fl.addrs[fl.index(ownerID)], creq, "")
	rep.Oracles = append(rep.Oracles, oracle("owner-local-hit",
		err == nil && status3 == http.StatusOK && r3.Cached && r3.CacheSource == "local" &&
			r3.WorkerID == ownerID && coreOf(r3) == coreOf(r1),
		"direct compare on owner %s: status=%d err=%v cached=%v source=%q identical=%v (want a local hit)",
		ownerID, status3, err, r3.Cached, r3.CacheSource, coreOf(r3) == coreOf(r1)))
	return rep, nil
}
