package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"cds/internal/daemon"
	"cds/internal/schedclient"
	"cds/internal/serve"
	"cds/internal/sweep"
)

// TestMain makes this test binary double as schedd and schedrouter:
// when the supervisor re-executes it with daemon.ChildEnv set,
// daemon.MaybeChild runs the real program and never returns. That is
// what lets the scenario tests below supervise genuine child processes
// without building cmd/schedd or cmd/schedrouter first.
func TestMain(m *testing.M) {
	daemon.MaybeChild()
	os.Exit(m.Run())
}

func TestDerivePlanDeterministic(t *testing.T) {
	for _, name := range PlanNames() {
		a, err := DerivePlan(name, 42)
		if err != nil {
			t.Fatalf("DerivePlan(%s): %v", name, err)
		}
		b, err := DerivePlan(name, 42)
		if err != nil {
			t.Fatalf("DerivePlan(%s): %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("plan %s is not deterministic:\n%+v\n%+v", name, a, b)
		}
		if got, _ := json.Marshal(a); len(got) == 0 {
			t.Errorf("plan %s does not marshal", name)
		}
	}
	if _, err := DerivePlan("no-such-plan", 1); err == nil {
		t.Fatal("unknown plan derived without error")
	}
}

func TestDerivePlanBounds(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		kr, _ := DerivePlan("kill-resume", seed)
		if kr.KillAtRecord < 2 || kr.KillAtRecord > gridSize-4 {
			t.Errorf("seed %d: kill-resume KillAtRecord %d outside [2, %d]", seed, kr.KillAtRecord, gridSize-4)
		}
		ff, _ := DerivePlan("fs-faults", seed)
		if len(ff.FSFaults) < 1 || len(ff.FSFaults) > 3 {
			t.Errorf("seed %d: fs-faults has %d faults, want 1..3", seed, len(ff.FSFaults))
		}
		for _, f := range ff.FSFaults {
			if f.N < 2 || f.N > gridSize {
				t.Errorf("seed %d: fault %+v outside the first %d appends", seed, f, gridSize)
			}
		}
		px, _ := DerivePlan("proxy", seed)
		if px.Proxy.ResetEveryN < 3 || px.ProxyCalls < px.Proxy.DuplicateEveryN {
			t.Errorf("seed %d: proxy plan %+v cannot fire every fault class", seed, px)
		}
	}
}

func TestCompletePrefixAndCountRecords(t *testing.T) {
	rec := func(status, job string) string {
		return fmt.Sprintf(`{"status":%q,"row":{"job":%q,"fb_bytes":1}}`+"\n", status, job)
	}
	data := []byte(rec(sweep.StatusDone, "a") + rec("canceled", "b") + rec(sweep.StatusDone, "c") + `{"status":"done","torn`)
	prefix := CompletePrefix(data)
	if !bytes.HasSuffix(prefix, []byte("\n")) || bytes.Contains(prefix, []byte("torn")) {
		t.Fatalf("CompletePrefix kept the torn tail: %q", prefix)
	}
	done, other := CountRecords(data)
	if done != 2 || other != 1 {
		t.Fatalf("CountRecords = %d done, %d other; want 2, 1", done, other)
	}
	if got := CompletePrefix([]byte("no newline at all")); got != nil {
		t.Fatalf("CompletePrefix of a tail-only buffer = %q, want nil", got)
	}
}

func TestResumeIdentityOracle(t *testing.T) {
	pre := []byte("one\ntwo\nthree-torn")
	if r := ResumeIdentity(pre, []byte("one\ntwo\nthree\nfour\n")); !r.OK {
		t.Fatalf("prefix-preserving resume judged bad: %s", r.Detail)
	}
	if r := ResumeIdentity(pre, []byte("one\nTWO\nthree\n")); r.OK {
		t.Fatal("a rewritten record passed the resume-identity oracle")
	}
	if r := ResumeIdentity(pre, []byte("one\n")); r.OK {
		t.Fatal("a shrunken journal passed the resume-identity oracle")
	}
}

func TestNoLostAcceptedWorkOracle(t *testing.T) {
	rows := []sweep.Row{{Job: "a"}, {Job: "b"}}
	if r := NoLostAcceptedWork(1, &serve.SweepResponse{Rows: rows, Resumed: 1}, 2); !r.OK {
		t.Fatalf("good resume judged bad: %s", r.Detail)
	}
	if r := NoLostAcceptedWork(1, &serve.SweepResponse{Rows: rows, Resumed: 0}, 2); r.OK {
		t.Fatal("recomputed durable work passed the oracle")
	}
	if r := NoLostAcceptedWork(1, &serve.SweepResponse{Rows: rows[:1], Resumed: 1}, 2); r.OK {
		t.Fatal("a missing point passed the oracle")
	}
	if r := NoLostAcceptedWork(0, &serve.SweepResponse{Rows: []sweep.Row{{Job: "a", Err: "boom"}}, Resumed: 0}, 1); r.OK {
		t.Fatal("an errored point passed the oracle")
	}
	if r := NoLostAcceptedWork(0, nil, 1); r.OK {
		t.Fatal("a missing answer passed the oracle")
	}
}

func TestReadyzTruthfulOracle(t *testing.T) {
	ok := ReadyzTruthful("t", 200, serve.ReadyzResponse{Status: "ready", QueueCapacity: 8}, "ready")
	if !ok.OK {
		t.Fatalf("ready/200 judged bad: %s", ok.Detail)
	}
	if r := ReadyzTruthful("t", 200, serve.ReadyzResponse{Status: "draining"}, "draining"); r.OK {
		t.Fatal("a 200 draining answer passed: readyz lied to the load balancer")
	}
	if r := ReadyzTruthful("t", 503, serve.ReadyzResponse{Status: "saturated", QueueDepth: 3, QueueCapacity: 8}, "saturated"); r.OK {
		t.Fatal("saturated with a half-empty queue passed")
	}
}

func TestBreakerRecoveryOracle(t *testing.T) {
	cool := 200 * time.Millisecond
	good := []ProbeEvent{
		{T: 0, Status: 503, Class: "transient_fault"},
		{T: 20 * time.Millisecond, Status: 503, Class: "circuit_open"},
		{T: 120 * time.Millisecond, Status: 503, Class: "circuit_open"},
		{T: 260 * time.Millisecond, Status: 200},
	}
	if r := BreakerRecovery(good, cool); !r.OK {
		t.Fatalf("good timeline judged bad: %s", r.Detail)
	}
	if r := BreakerRecovery(good[:3], cool); r.OK {
		t.Fatal("a never-recovered timeline passed")
	}
	if r := BreakerRecovery([]ProbeEvent{{T: 0, Status: 200}}, cool); r.OK {
		t.Fatal("a timeline with no open passed")
	}
	early := []ProbeEvent{
		{T: 0, Status: 503, Class: "circuit_open"},
		{T: 10 * time.Millisecond, Status: 200},
	}
	if r := BreakerRecovery(early, cool); r.OK {
		t.Fatal("a recovery faster than the cooldown permits passed")
	}
}

func TestExactlyOnceOracle(t *testing.T) {
	ev := []ProxyEvent{{1, "reset"}, {2, "truncate"}, {3, "duplicate"}}
	good := schedclient.Stats{Calls: 5, Attempts: 7, Accepted: 5, Replayed: 2}
	if r := ExactlyOnce(good, ev); !r.OK {
		t.Fatalf("good ledger judged bad: %s", r.Detail)
	}
	if r := ExactlyOnce(schedclient.Stats{Calls: 5, Attempts: 7, Accepted: 4, Replayed: 2}, ev); r.OK {
		t.Fatal("a lost call passed")
	}
	if r := ExactlyOnce(schedclient.Stats{Calls: 5, Attempts: 5, Accepted: 5, Replayed: 2}, ev); r.OK {
		t.Fatal("truncations without a single retry passed")
	}
	if r := ExactlyOnce(schedclient.Stats{Calls: 5, Attempts: 7, Accepted: 5, Replayed: 0}, ev); r.OK {
		t.Fatal("resets and duplicates with zero replays passed — double-run work")
	}
}

// TestProxyFaultScheduleDeterministic drives a trivial backend through
// the proxy with a non-retrying client and checks the injected faults
// are exactly the pure function of the request index the plan promises.
func TestProxyFaultScheduleDeterministic(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true,"padding":"0123456789012345678901234567890123456789"}`))
	}))
	defer backend.Close()
	plan := ProxyPlan{ResetEveryN: 3, TruncateEveryN: 7, DuplicateEveryN: 5}

	run := func() []ProxyEvent {
		px, err := StartProxy(backend.Listener.Addr().String(), plan, t.Logf)
		if err != nil {
			t.Fatalf("StartProxy: %v", err)
		}
		defer px.Close()
		// A fresh connection per request: no pooled-connection retries,
		// so request i maps to proxy index i.
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		for i := 1; i <= 21; i++ {
			resp, err := client.Post("http://"+px.Addr(), "application/json", bytes.NewReader([]byte("{}")))
			if err != nil {
				if plan.ResetEveryN > 0 && i%plan.ResetEveryN == 0 {
					continue // the scheduled reset, seen as a transport error
				}
				t.Fatalf("request %d unexpectedly failed: %v", i, err)
			}
			_, rerr := io_ReadAll(resp.Body)
			resp.Body.Close()
			truncated := i%plan.TruncateEveryN == 0 && i%plan.ResetEveryN != 0
			if truncated && rerr == nil {
				t.Fatalf("request %d should have been truncated", i)
			}
			if !truncated && rerr != nil {
				t.Fatalf("request %d body read failed: %v", i, rerr)
			}
		}
		return px.Events()
	}

	first := run()
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("fault schedule is not deterministic:\n%v\n%v", first, second)
	}
	var want []ProxyEvent
	for i := 1; i <= 21; i++ {
		switch {
		case i%plan.ResetEveryN == 0:
			want = append(want, ProxyEvent{i, "reset"})
		case i%plan.TruncateEveryN == 0:
			want = append(want, ProxyEvent{i, "truncate"})
		case i%plan.DuplicateEveryN == 0:
			want = append(want, ProxyEvent{i, "duplicate"})
		}
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("events = %v, want the plan's pure schedule %v", first, want)
	}
}

func io_ReadAll(r interface{ Read([]byte) (int, error) }) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// TestSupervisorRunsRealChild exercises the re-exec seam end to end:
// start a real schedd child, see it become ready, drain it with
// SIGTERM, and get exit status 0 back.
func TestSupervisorRunsRealChild(t *testing.T) {
	sup := &Supervisor{Logf: t.Logf}
	addr, err := FreeAddr()
	if err != nil {
		t.Fatal(err)
	}
	c, err := sup.Start(addr, "-drain-timeout", "5s")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if err := c.Term(); err != nil {
		t.Fatalf("Term: %v", err)
	}
	code, err := c.WaitExit(ctx)
	if code != 0 || err != nil {
		t.Fatalf("exit = %d, %v; want clean 0 after SIGTERM drain (stderr:\n%s)", code, err, c.Stderr())
	}
}

// TestKillResumeScenario is the harness's own end-to-end check: the
// full kill-resume drill against real child processes must pass, and
// its report must be reproducible (same plan from the same seed).
func TestKillResumeScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos drill")
	}
	rep, err := Run(Config{Seed: 1, Plan: "kill-resume", Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, o := range rep.Oracles {
		if !o.OK {
			t.Errorf("oracle %s failed: %s", o.Name, o.Detail)
		}
	}
	if !rep.OK {
		t.Fatal("kill-resume drill failed")
	}
	again, err := DerivePlan("kill-resume", 1)
	if err != nil || !reflect.DeepEqual(rep.Plan, again) {
		t.Fatalf("report plan %+v does not rederive from its seed (%+v, %v)", rep.Plan, again, err)
	}
}

// TestFSFaultsScenario runs the in-process filesystem-fault drill.
func TestFSFaultsScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep chaos drill")
	}
	rep, err := Run(Config{Seed: 3, Plan: "fs-faults", Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, o := range rep.Oracles {
		if !o.OK {
			t.Errorf("oracle %s failed: %s", o.Name, o.Detail)
		}
	}
}
