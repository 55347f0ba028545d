package scenariod

import (
	"fmt"
	"testing"

	"repro/internal/scenario"
)

// TestLeaseScansOnlyUnfinishedRuns completes many runs through Lease and
// checks that the grants come oldest run first, cell by cell in matrix
// order, and that finished runs leave the lease scan instead of being
// walked on every later lease.
func TestLeaseScansOnlyUnfinishedRuns(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	submit := func(n int) (want []string) {
		for i := 0; i < n; i++ {
			sub, err := s.Submit(tinySpec())
			if err != nil {
				t.Fatal(err)
			}
			cells := s.getRun(sub.RunID).matrix.Expand()
			for _, c := range cells {
				want = append(want, sub.RunID+"/"+c.Key())
			}
		}
		return want
	}
	// complete leases and completes k cells, returning the grant order.
	complete := func(k int) (got []string) {
		for i := 0; i < k; i++ {
			resp := s.Lease("w")
			if resp.Status != LeaseJob {
				t.Fatalf("lease %d: status %q, want a job", i, resp.Status)
			}
			g := resp.Job
			got = append(got, g.RunID+"/"+g.Key)
			cr := scenario.CellResult{Family: g.Family, N: g.N, Engine: g.Engine, Protocol: g.Protocol,
				Seed: g.Seed, Outcome: scenario.OutcomeOK}
			if _, err := s.getRun(g.RunID).queue.Complete(g.Key, g.LeaseID, cr); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	checkOrder := func(got, want []string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("grant order:\n  got  %v\n  want %v", got, want)
		}
	}

	const runs = 40
	want := submit(runs)
	checkOrder(complete(len(want)), want)
	if resp := s.Lease("w"); resp.Status != LeaseEmpty {
		t.Fatalf("lease after every run finished: status %q, want empty", resp.Status)
	}
	if n := len(s.active); n != 0 {
		t.Fatalf("%d finished runs still in the lease scan", n)
	}

	// Two fresh runs: only they are scanned, and they grant in order.
	want = submit(2)
	first := complete(1)
	if n := len(s.active); n != 2 {
		t.Fatalf("lease scan holds %d runs, want the 2 unfinished", n)
	}
	checkOrder(append(first, complete(len(want)-1)...), want)
	if resp := s.Lease("w"); resp.Status != LeaseEmpty || len(s.active) != 0 {
		t.Fatalf("after the fresh runs: status %q, %d runs in the scan", resp.Status, len(s.active))
	}
	if got := len(s.order); got != runs+2 {
		t.Fatalf("server lists %d runs, want all %d", got, runs+2)
	}
}
