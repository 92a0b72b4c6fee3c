package cluster

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestLoadMembersFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "workers.txt")
	content := `# the fleet
w1=localhost:9001
w2=localhost:9002   # staging box

localhost:9003
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMembersFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{
		{ID: "w1", Addr: "localhost:9001"},
		{ID: "w2", Addr: "localhost:9002"},
		{ID: "localhost:9003", Addr: "localhost:9003"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadMembersFile = %+v, want %+v", got, want)
	}

	for name, bad := range map[string]string{
		"empty":      "# nothing here\n",
		"dup":        "w1=a:1\nw1=b:2\n",
		"malformed":  "=missing-id\n",
		"no-address": "w1=\n",
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadMembersFile(p); err == nil {
			t.Errorf("%s: LoadMembersFile accepted %q", name, bad)
		}
	}

	if _, err := LoadMembersFile(filepath.Join(dir, "absent")); err == nil {
		t.Error("LoadMembersFile accepted a missing file")
	}
}

// TestSetMembers pins the dynamic-membership contract: joiners enter
// the ring and the candidate walks, leavers drop out everywhere, and a
// kept worker carries its health state (an open breaker) across the
// swap.
func TestSetMembers(t *testing.T) {
	f := NewFleet(FleetConfig{
		Workers: []Member{{ID: "w1", Addr: "h1:1"}, {ID: "w2", Addr: "h2:2"}},
	})

	added, removed := f.SetMembers([]Member{
		{ID: "w1", Addr: "h1:1"},
		{ID: "w3", Addr: "h3:3"},
	})
	if !reflect.DeepEqual(added, []string{"w3"}) || !reflect.DeepEqual(removed, []string{"w2"}) {
		t.Fatalf("added=%v removed=%v, want [w3]/[w2]", added, removed)
	}
	if got := f.Ring().Members(); !reflect.DeepEqual(got, []string{"w1", "w3"}) {
		t.Fatalf("ring members = %v, want [w1 w3]", got)
	}
	if _, ok := f.Addr("w2"); ok {
		t.Fatal("removed worker w2 still resolves an address")
	}
	if addr, ok := f.Addr("w3"); !ok || addr != "h3:3" {
		t.Fatalf("Addr(w3) = %q/%v, want h3:3/true", addr, ok)
	}
	for _, id := range f.Candidates([]byte("key"), 0) {
		if id == "w2" {
			t.Fatal("removed worker w2 still a routing candidate")
		}
	}

	// Ejected state survives a membership swap that keeps the worker.
	for i := 0; i < 5; i++ {
		f.ReportForwardFailure("w1")
	}
	if f.eligible("w1") {
		t.Fatal("w1 should be ejected after repeated forward failures")
	}
	f.SetMembers([]Member{{ID: "w1", Addr: "h1:99"}, {ID: "w3", Addr: "h3:3"}})
	if f.eligible("w1") {
		t.Fatal("membership swap reset w1's breaker")
	}
	if addr, _ := f.Addr("w1"); addr != "h1:99" {
		t.Fatalf("kept worker's address not updated: %q", addr)
	}
}

// TestSetMembersProbeLifecycle: on a started fleet, a joiner's probe
// loop begins immediately and a leaver's stops — its readyz endpoint
// goes quiet instead of being probed forever.
func TestSetMembersProbeLifecycle(t *testing.T) {
	w1, w2 := newFakeWorker(t, "w1"), newFakeWorker(t, "w2")
	var w2Probes atomic.Int64
	w2.setReady(func() (int, string) {
		w2Probes.Add(1)
		return http.StatusOK, `{"status":"ready","worker_id":"w2","pid":2}`
	})

	f := fastFleet(t, w1)
	waitFor(t, "w1 probed", 2*time.Second, func() bool { return f.EligibleCount() == 1 })

	// w2 joins: its probe loop starts and it becomes a candidate.
	f.SetMembers([]Member{w1.member(), w2.member()})
	waitFor(t, "w2 probed after join", 2*time.Second, func() bool {
		return w2Probes.Load() > 0 && f.EligibleCount() == 2
	})

	// w2 leaves: probes stop (modulo one in flight at removal time).
	f.SetMembers([]Member{w1.member()})
	waitFor(t, "w2 out of the candidates", 2*time.Second, func() bool { return f.EligibleCount() == 1 })
	settled := w2Probes.Load()
	time.Sleep(100 * time.Millisecond) // ~10 probe intervals
	if n := w2Probes.Load(); n > settled+1 {
		t.Fatalf("removed worker still probed: %d probes after removal", n-settled)
	}
	snap := f.Snapshot()
	if len(snap.Workers) != 1 || snap.Workers[0].ID != "w1" {
		t.Fatalf("snapshot after removal = %+v, want only w1", snap.Workers)
	}
}

// TestReloadWorkersFile drives the SIGHUP path's Fleet method directly:
// a good file swaps the membership, a bad one keeps it.
func TestReloadWorkersFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "workers.txt")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("w1=h1:1\n")
	members, err := LoadMembersFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(FleetConfig{Workers: members, Logf: t.Logf})

	write("w1=h1:1\nw2=h2:2\n")
	f.ReloadMembersFile(path)
	if got := f.Ring().Members(); !reflect.DeepEqual(got, []string{"w1", "w2"}) {
		t.Fatalf("after good reload: %v, want [w1 w2]", got)
	}

	// A half-edited file must not empty the fleet.
	write("w1=h1:1\nw1=h1:1\n")
	f.ReloadMembersFile(path)
	if got := f.Ring().Members(); !reflect.DeepEqual(got, []string{"w1", "w2"}) {
		t.Fatalf("bad reload changed membership: %v", got)
	}
}
