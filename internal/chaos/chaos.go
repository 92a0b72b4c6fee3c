package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"cds/internal/journal"
	"cds/internal/retry"
	"cds/internal/schedclient"
	"cds/internal/serve"
	"cds/internal/sweep"
	"cds/internal/workloads"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed drives every fault schedule; (Seed, Plan) reproduces the run.
	Seed int64
	// Plan is a scenario name from PlanNames.
	Plan string
	// SchedCmd is the schedd binary to supervise; empty re-executes the
	// current binary through daemon.MaybeChild.
	SchedCmd string
	// Dir is the scratch directory (journals); empty creates a temp dir
	// that is removed when the run passes and kept when it fails.
	Dir string
	// Logf observes the run; nil disables.
	Logf func(format string, args ...any)
}

// Report is one scenario's reproducible verdict.
type Report struct {
	Plan    Plan           `json:"plan"`
	OK      bool           `json:"ok"`
	Oracles []OracleResult `json:"oracles"`
	// ProxyEvents and Probes carry the observed fault/probe timelines
	// for the scenarios that have them.
	ProxyEvents []ProxyEvent `json:"proxy_events,omitempty"`
	Probes      []ProbeEvent `json:"probes,omitempty"`
	// Dir is where the run's journals live (kept on failure).
	Dir string `json:"dir,omitempty"`
}

// Run executes one named scenario and returns its report. The error is
// a harness failure (could not start a child, scratch dir unusable);
// invariant violations are not errors — they are !OK oracle results.
func Run(cfg Config) (*Report, error) {
	plan, err := DerivePlan(cfg.Plan, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, logf: cfg.Logf}
	if r.logf == nil {
		r.logf = func(string, ...any) {}
	}
	r.dir = cfg.Dir
	owned := false
	if r.dir == "" {
		r.dir, err = os.MkdirTemp("", "chaos-"+plan.Name+"-")
		if err != nil {
			return nil, err
		}
		owned = true
	} else if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	r.sup = &Supervisor{SchedCmd: cfg.SchedCmd, Logf: r.logf}
	r.logf("chaos: plan %s seed %d: start (dir %s)", plan.Name, plan.Seed, r.dir)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	var rep *Report
	switch plan.Name {
	case "kill-resume":
		rep, err = r.killResume(ctx, plan)
	case "term-drain":
		rep, err = r.termDrain(ctx, plan)
	case "fs-faults":
		rep, err = r.fsFaults(ctx, plan)
	case "proxy":
		rep, err = r.proxy(ctx, plan)
	case "overload":
		rep, err = r.overload(ctx, plan)
	case "breaker":
		rep, err = r.breaker(ctx, plan)
	case "router-kill-worker":
		rep, err = r.routerKillWorker(ctx, plan)
	case "router-drain-rebalance":
		rep, err = r.routerDrainRebalance(ctx, plan)
	case "router-split-cache":
		rep, err = r.routerSplitCache(ctx, plan)
	default:
		err = fmt.Errorf("chaos: plan %q has no runner", plan.Name)
	}
	if err != nil {
		return nil, err
	}
	rep.Plan = plan
	rep.OK = AllOK(rep.Oracles)
	rep.Dir = r.dir
	for _, o := range rep.Oracles {
		mark := "ok  "
		if !o.OK {
			mark = "FAIL"
		}
		r.logf("chaos: %s %s %s: %s", plan.Name, mark, o.Name, o.Detail)
	}
	if rep.OK && owned {
		os.RemoveAll(r.dir)
		rep.Dir = ""
	}
	return rep, nil
}

// RunAll executes every scenario in PlanNames order with the same seed.
func RunAll(cfg Config) ([]*Report, error) {
	var reps []*Report
	for _, name := range PlanNames() {
		c := cfg
		c.Plan = name
		rep, err := Run(c)
		if err != nil {
			return reps, fmt.Errorf("chaos: plan %s: %w", name, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

type runner struct {
	cfg  Config
	sup  *Supervisor
	dir  string
	logf func(string, ...any)
}

func (r *runner) policy(seed int64) retry.Policy {
	return retry.Policy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Seed: seed}
}

func (r *runner) client(addr string, seed int64) *schedclient.Client {
	return schedclient.New(schedclient.Config{
		BaseURL: "http://" + addr,
		Retry:   r.policy(seed),
		Seed:    seed,
		Logf:    r.logf,
	})
}

// start launches one schedd child on a fresh port and waits for it to
// answer /healthz.
func (r *runner) start(ctx context.Context, extra ...string) (*Child, error) {
	addr, err := FreeAddr()
	if err != nil {
		return nil, err
	}
	return r.startOn(ctx, addr, extra...)
}

func (r *runner) startOn(ctx context.Context, addr string, extra ...string) (*Child, error) {
	c, err := r.sup.Start(addr, extra...)
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := c.WaitReady(rctx); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

func points(p Plan) int { return len(p.Archs) * len(p.Workloads) }

func sweepReq(p Plan, journal string) serve.SweepRequest {
	return serve.SweepRequest{Archs: p.Archs, Workloads: p.Workloads, Workers: 2, Journal: journal}
}

// rawPost is the un-hardened HTTP path, for requests whose raw fate
// (connection error on kill, 429 on shed) is itself the observation.
func rawPost(ctx context.Context, url string, v any) (int, []byte, http.Header, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	return resp.StatusCode, data, resp.Header, nil
}

// killResume: SIGKILL a child mid-sweep at the plan's journal record
// count, restart against the same journal, and verify nothing durable
// was lost, nothing resumed was recomputed, and the final answer is
// byte-identical to an undisturbed run.
func (r *runner) killResume(ctx context.Context, p Plan) (*Report, error) {
	jpath := filepath.Join(r.dir, "chaos.jsonl")
	os.Remove(jpath) // a stale journal would resume instead of running
	flags := []string{
		"-journal-dir", r.dir,
		"-sweep-point-delay", p.PointDelay.String(),
	}
	c1, err := r.start(ctx, flags...)
	if err != nil {
		return nil, err
	}
	defer c1.Stop()

	// Fire the sweep; its connection dies with the child, which is fine —
	// the journal, not this response, is the durable record.
	go rawPost(ctx, "http://"+c1.Addr+"/v1/sweep", sweepReq(p, "chaos"))

	if _, err := WaitJournalRecords(ctx, c1, jpath, p.KillAtRecord); err != nil {
		return nil, err
	}
	r.logf("chaos: kill-resume: SIGKILL pid %d at >=%d journal records", c1.Pid(), p.KillAtRecord)
	if err := c1.Kill(); err != nil {
		return nil, err
	}
	c1.Stop()

	postCrash, err := os.ReadFile(jpath)
	if err != nil {
		return nil, fmt.Errorf("chaos: reading post-crash journal: %w", err)
	}
	done, other := CountRecords(postCrash)

	// Restart on the SAME address: recovery includes winning the port back.
	c2, err := r.startOn(ctx, c1.Addr, flags...)
	if err != nil {
		return nil, err
	}
	defer c2.Stop()

	cl := r.client(c2.Addr, p.Seed)
	resp, serr := cl.Sweep(ctx, sweepReq(p, "chaos"))
	final, err := os.ReadFile(jpath)
	if err != nil {
		return nil, fmt.Errorf("chaos: reading final journal: %w", err)
	}
	status, rz, rzErr := cl.Readyz(ctx)

	rep := &Report{}
	rep.Oracles = append(rep.Oracles,
		oracle("kill-landed", done >= 1 && done < points(p) && other == 0,
			"SIGKILL left %d done + %d other records of %d points", done, other, points(p)),
		oracle("resume-accepted", serr == nil, "re-POST after restart: err=%v", serr),
		ResumeIdentity(postCrash, final),
		NoLostAcceptedWork(done, resp, points(p)),
	)
	if serr == nil {
		rep.Oracles = append(rep.Oracles, RowsIdentity(resp.Rows, p.Archs, p.Workloads, 2))
	}
	if rzErr == nil {
		rep.Oracles = append(rep.Oracles, ReadyzTruthful("after-restart", status, rz, "ready"))
	} else {
		rep.Oracles = append(rep.Oracles, oracle("readyz-after-restart", false, "readyz probe failed: %v", rzErr))
	}
	return rep, nil
}

// termDrain: SIGTERM mid-sweep and verify the drain contract — readyz
// flips to a truthful 503 "draining" while the in-flight sweep runs to
// completion, the process exits 0, and a restart resumes every point
// from the journal without recomputing anything.
func (r *runner) termDrain(ctx context.Context, p Plan) (*Report, error) {
	jpath := filepath.Join(r.dir, "drain.jsonl")
	os.Remove(jpath)
	flags := []string{
		"-journal-dir", r.dir,
		"-sweep-point-delay", p.PointDelay.String(),
		"-drain-timeout", "20s",
		"-drain-grace", "2s",
	}
	c1, err := r.start(ctx, flags...)
	if err != nil {
		return nil, err
	}
	defer c1.Stop()

	type sweepAnswer struct {
		status int
		body   []byte
		err    error
	}
	ansc := make(chan sweepAnswer, 1)
	go func() {
		status, body, _, err := rawPost(ctx, "http://"+c1.Addr+"/v1/sweep", sweepReq(p, "drain"))
		ansc <- sweepAnswer{status, body, err}
	}()

	if _, err := WaitJournalRecords(ctx, c1, jpath, p.KillAtRecord); err != nil {
		return nil, err
	}
	r.logf("chaos: term-drain: SIGTERM pid %d mid-sweep", c1.Pid())
	if err := c1.Term(); err != nil {
		return nil, err
	}

	// Probe readiness inside the drain-grace window: the listener is
	// still up, the sweep is still running, readyz must already say so.
	drainRz := oracle("readyz-draining", false, "never observed a draining readyz before exit")
	probe := r.client(c1.Addr, p.Seed)
	for !c1.Exited() {
		status, rz, err := probe.Readyz(ctx)
		if err == nil && rz.Status != "ready" {
			drainRz = ReadyzTruthful("draining", status, rz, "draining")
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	code, _ := c1.WaitExit(wctx)
	ans := <-ansc

	var resp1 serve.SweepResponse
	sweepServed := ans.err == nil && ans.status == http.StatusOK &&
		json.Unmarshal(ans.body, &resp1) == nil && len(resp1.Rows) == points(p)

	postDrain, err := os.ReadFile(jpath)
	if err != nil {
		return nil, fmt.Errorf("chaos: reading post-drain journal: %w", err)
	}
	done, other := CountRecords(postDrain)

	c2, err := r.startOn(ctx, c1.Addr, flags...)
	if err != nil {
		return nil, err
	}
	defer c2.Stop()
	cl := r.client(c2.Addr, p.Seed)
	resp2, serr := cl.Sweep(ctx, sweepReq(p, "drain"))
	final, err := os.ReadFile(jpath)
	if err != nil {
		return nil, err
	}

	rep := &Report{}
	rep.Oracles = append(rep.Oracles,
		drainRz,
		oracle("drain-exit-clean", code == 0, "exit code %d after SIGTERM (want 0: everything drained)", code),
		oracle("inflight-sweep-served", sweepServed,
			"in-flight sweep during drain: err=%v status=%d rows=%d (want 200 with all %d points)",
			ans.err, ans.status, len(resp1.Rows), points(p)),
		oracle("drain-journal-complete", done == points(p) && other == 0,
			"journal after clean drain holds %d done + %d other records, want %d done", done, other, points(p)),
		oracle("resume-accepted", serr == nil, "re-POST after restart: err=%v", serr),
		ResumeIdentity(postDrain, final),
		NoLostAcceptedWork(done, resp2, points(p)),
	)
	if serr == nil {
		rep.Oracles = append(rep.Oracles, RowsIdentity(resp2.Rows, p.Archs, p.Workloads, 2))
	}
	return rep, nil
}

// fsFaults runs the journaled sweep in-process against a filesystem
// that fails on the plan's schedule (ENOSPC, torn writes, fsync
// errors), then resumes on a healthy filesystem and verifies bounded
// loss, prefix preservation and a byte-identical final answer.
func (r *runner) fsFaults(ctx context.Context, p Plan) (*Report, error) {
	jobs, err := buildJobs(p)
	if err != nil {
		return nil, err
	}
	jpath := filepath.Join(r.dir, "fsfaults.jsonl")
	os.Remove(jpath)

	fsys := journal.NewFaultFS(journal.OS, p.FSFaults...)
	j1, prior1, err := sweep.OpenJournalFS(fsys, jpath)
	if err != nil {
		return nil, fmt.Errorf("chaos: opening faulted journal: %w", err)
	}
	if len(prior1) != 0 {
		j1.Close()
		return nil, fmt.Errorf("chaos: fresh journal has %d prior records", len(prior1))
	}
	_, faultedErr := sweep.RunJournaled(ctx, j1, prior1, jobs, 2, nil)
	j1.Close()

	post, err := os.ReadFile(jpath)
	if err != nil {
		return nil, err
	}
	done, other := CountRecords(post)
	writeFaults := 0
	for _, f := range p.FSFaults {
		if f.Op == journal.OpWrite {
			writeFaults++
		}
	}

	j2, prior2, err := sweep.OpenJournal(jpath)
	reopenOK := err == nil
	var rows []sweep.Row
	var resumeErr error
	if reopenOK {
		rows, resumeErr = sweep.RunJournaled(ctx, j2, prior2, jobs, 2, nil)
		j2.Close()
	}
	final, err := os.ReadFile(jpath)
	if err != nil {
		return nil, err
	}
	fdone, _ := CountRecords(final)

	rep := &Report{}
	rep.Oracles = append(rep.Oracles,
		oracle("faults-fired", len(fsys.Fired) >= 1,
			"%d of %d scheduled faults fired (%d surfaced: %v)", len(fsys.Fired), len(p.FSFaults), len(p.FSFaults), faultedErr),
		oracle("fault-surfaced", faultedErr != nil,
			"faulted run's append error: %v (a silent journal failure would be a lie)", faultedErr),
		oracle("bounded-loss", other == 0 && points(p)-done <= writeFaults,
			"faulted journal holds %d/%d done records (+%d other); %d write faults may each lose at most one",
			done, points(p), other, writeFaults),
		oracle("healthy-reopen", reopenOK && resumeErr == nil,
			"reopen on a healthy filesystem: open err=%v, resume err=%v", err, resumeErr),
		ResumeIdentity(post, final),
		oracle("resume-completes", fdone == points(p),
			"final journal holds %d/%d done records", fdone, points(p)),
	)
	if reopenOK && resumeErr == nil {
		rep.Oracles = append(rep.Oracles,
			oracle("resumed-not-recomputed", len(prior2) == done,
				"resume read %d journal records, %d were durable", len(prior2), done),
			RowsIdentity(rows, p.Archs, p.Workloads, 2))
	}
	return rep, nil
}

func buildJobs(p Plan) ([]sweep.Job, error) {
	archs, skipped := sweep.PresetArchs(p.Archs...)
	if len(skipped) > 0 {
		return nil, fmt.Errorf("chaos: unknown arch presets %v", skipped)
	}
	exps := make([]workloads.Experiment, 0, len(p.Workloads))
	for _, name := range p.Workloads {
		e, err := workloads.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		exps = append(exps, e)
	}
	return sweep.Grid(archs, exps), nil
}

// proxy drives compare traffic through the fault-injecting proxy and
// verifies the hardened client plus the server's idempotency layer
// deliver exactly-once results despite resets, truncations, duplicates
// and latency.
func (r *runner) proxy(ctx context.Context, p Plan) (*Report, error) {
	c1, err := r.start(ctx)
	if err != nil {
		return nil, err
	}
	defer c1.Stop()

	px, err := StartProxy(c1.Addr, p.Proxy, r.logf)
	if err != nil {
		return nil, err
	}
	defer px.Close()

	cl := r.client(px.Addr(), p.Seed)
	failures := 0
	var firstErr error
	for i := 0; i < p.ProxyCalls; i++ {
		req := serve.CompareRequest{
			Workload: p.Workloads[i%len(p.Workloads)],
			Arch:     p.Archs[(i/len(p.Workloads))%len(p.Archs)],
		}
		if _, err := cl.Compare(ctx, req); err != nil {
			failures++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	st := cl.Stats()
	events := px.Events()

	rep := &Report{ProxyEvents: events}
	rep.Oracles = append(rep.Oracles,
		oracle("all-calls-answered", failures == 0,
			"%d of %d calls failed through the proxy (first: %v)", failures, p.ProxyCalls, firstErr),
		oracle("faults-injected", len(events) > 0, "%d proxy faults injected", len(events)),
		ExactlyOnce(st, events),
	)
	return rep, nil
}

// overload saturates a 1-worker, 1-deep admission queue with paced
// journaled sweeps and verifies readyz reports saturation truthfully,
// the overflow request is shed with 429 + Retry-After, and readiness
// recovers once the queue drains.
func (r *runner) overload(ctx context.Context, p Plan) (*Report, error) {
	if stale, _ := filepath.Glob(filepath.Join(r.dir, "ol-*.jsonl")); stale != nil {
		for _, path := range stale {
			os.Remove(path)
		}
	}
	flags := []string{
		"-journal-dir", r.dir,
		"-sweep-point-delay", p.PointDelay.String(),
		"-workers", "1",
		"-queue", "1",
	}
	c1, err := r.start(ctx, flags...)
	if err != nil {
		return nil, err
	}
	defer c1.Stop()
	base := "http://" + c1.Addr

	type ans struct {
		status int
		body   []byte
		err    error
	}
	post := func(journal string) chan ans {
		ch := make(chan ans, 1)
		go func() {
			status, body, _, err := rawPost(ctx, base+"/v1/sweep", sweepReq(p, journal))
			ch <- ans{status, body, err}
		}()
		return ch
	}

	// A takes the worker slot; wait until its journal proves it is running.
	ansA := post("ol-a")
	if _, err := WaitJournalRecords(ctx, c1, filepath.Join(r.dir, "ol-a.jsonl"), 1); err != nil {
		return nil, err
	}
	// B fills the one queue slot.
	ansB := post("ol-b")

	probe := r.client(c1.Addr, p.Seed)
	satRz := oracle("readyz-saturated", false, "never observed a saturated readyz")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		status, rz, err := probe.Readyz(ctx)
		if err == nil && rz.Status == "saturated" {
			satRz = ReadyzTruthful("saturated", status, rz, "saturated")
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// C must be shed while the slot and the queue are both taken.
	shed := oracle("load-shed", false, "overflow request was never shed with 429")
	for i := 0; i < 10; i++ {
		status, _, hdr, err := rawPost(ctx, base+"/v1/sweep", sweepReq(p, fmt.Sprintf("ol-c%d", i)))
		if err == nil && status == http.StatusTooManyRequests {
			shed = oracle("load-shed", hdr.Get("Retry-After") != "",
				"overflow request shed with 429, Retry-After=%q", hdr.Get("Retry-After"))
			break
		}
		if err == nil && status == http.StatusOK {
			// The queue drained under us; the accepted sweep proves it.
			shed = oracle("load-shed", false, "overflow request %d was accepted (200), queue never stayed full", i)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	a, b := <-ansA, <-ansB
	okSweep := func(x ans) bool {
		var resp serve.SweepResponse
		return x.err == nil && x.status == http.StatusOK &&
			json.Unmarshal(x.body, &resp) == nil && len(resp.Rows) == points(p)
	}

	readyRz := oracle("readyz-recovered", false, "readyz never returned to ready after the queue drained")
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		status, rz, err := probe.Readyz(ctx)
		if err == nil && rz.Status == "ready" {
			readyRz = ReadyzTruthful("recovered", status, rz, "ready")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	rep := &Report{}
	rep.Oracles = append(rep.Oracles,
		satRz,
		shed,
		oracle("admitted-sweeps-complete", okSweep(a) && okSweep(b),
			"sweep A: err=%v status=%d; sweep B: err=%v status=%d (want both 200 with %d rows)",
			a.err, a.status, b.err, b.status, points(p)),
		readyRz,
	)
	return rep, nil
}

// breaker runs a child whose functional machine fails every run inside
// a finite fault window, probes it until the per-target circuit opens
// and then recovers, and verifies the open/recover timeline respects
// the configured cooldown.
func (r *runner) breaker(ctx context.Context, p Plan) (*Report, error) {
	flags := []string{
		"-retry-attempts", "2",
		"-retry-base", "1ms",
		"-breaker-threshold", "2",
		"-breaker-cooldown", p.BreakerCooldown.String(),
		"-fault-seed", fmt.Sprint(p.Seed),
		"-fault-fail-every", "1",
		"-fault-fail-runs", fmt.Sprint(p.BreakerFailRuns),
	}
	c1, err := r.start(ctx, flags...)
	if err != nil {
		return nil, err
	}
	defer c1.Stop()

	var probes []ProbeEvent
	start := time.Now()
	sawOpen := false
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		status, body, _, err := rawPost(ctx, "http://"+c1.Addr+"/v1/compare", serve.CompareRequest{Workload: "E1"})
		if err != nil {
			return nil, fmt.Errorf("chaos: breaker probe: %w", err)
		}
		var env serve.ErrorBody
		json.Unmarshal(body, &env)
		probes = append(probes, ProbeEvent{T: time.Since(start), Status: status, Class: env.Class})
		if env.Class == "circuit_open" {
			sawOpen = true
		}
		if sawOpen && status == http.StatusOK {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	rep := &Report{Probes: probes}
	rep.Oracles = append(rep.Oracles, BreakerRecovery(probes, p.BreakerCooldown))
	return rep, nil
}
