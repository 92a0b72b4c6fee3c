package core

import (
	"testing"
)

// TestBasicContextTrafficIsFullReload pins the DATE'99 baseline's
// context behavior: the Basic Scheduler reloads every kernel's contexts
// on every cluster iteration, so on a workload whose contexts all fit
// the Context Memory its context traffic is EXACTLY
// iterations x sum(ContextWords) — the CM replay must not let groups
// that survive across visits skip their recharge (the bug this test
// regresses: visits after the first came back nearly context-free).
func TestBasicContextTrafficIsFullReload(t *testing.T) {
	const iterations = 6
	part := pipeApp(t, iterations)
	pa := testArch(1 << 16)
	// A CM holding every kernel's contexts at once: with reuse allowed
	// everything would stay resident after the first pass.
	pa.CMWords = part.App.TotalContextWords() + 1

	s, err := (Basic{}).Schedule(pa, part)
	if err != nil {
		t.Fatal(err)
	}
	want := iterations * part.App.TotalContextWords()
	if got := s.TotalCtxWords(); got != want {
		t.Fatalf("basic context traffic = %d words, want iterations x sum(ContextWords) = %d", got, want)
	}
	// Every visit recharges its cluster's full volume — none comes back
	// lighter because a group survived in the CM.
	for _, v := range s.Visits() {
		sum := 0
		for _, ki := range part.Clusters[v.Cluster].Kernels {
			sum += part.App.Kernels[ki].ContextWords
		}
		if v.CtxWords != sum {
			t.Errorf("visit (block %d, cluster %d): %d context words, want full reload %d",
				v.Block, v.Cluster, v.CtxWords, sum)
		}
	}

	// Contrast: the Data Scheduler on the same workload DOES reuse
	// resident contexts, so its traffic must stay strictly below the
	// baseline's — that is the RF mechanism the paper builds on.
	ds, err := (DataScheduler{}).Schedule(pa, part)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TotalCtxWords() >= want {
		t.Errorf("ds context traffic %d not below basic's %d", ds.TotalCtxWords(), want)
	}
}
