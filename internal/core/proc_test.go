package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bits"
)

// crashPlan crash-stops node 1 at round 1 and delivers everything else.
type crashPlan struct{}

func (crashPlan) OnMessage(round, src, dst, nbits int) FaultAction { return FaultAction{} }
func (crashPlan) CrashRound(id int) int {
	if id == 1 {
		return 1
	}
	return -1
}

// settleGoroutines waits briefly for exiting goroutines (the worker pool
// parks its workers on a channel that Run closes) and returns the count.
func settleGoroutines(want int) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); got > want && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	return got
}

// A run that fails while bodies are suspended in Next unwinds them
// before RunProcs returns: no goroutine outlives the run, and the
// bodies' deferred calls run. So does a run that succeeds around a
// crashed node, whose body is never resumed.
func TestRunProcsNoLeakOnError(t *testing.T) {
	const n = 8
	errBody := errors.New("body failed")
	// idle waits in Next for a message from its successor, which no
	// body sends.
	idle := func(p *Proc) error {
		for {
			if in := p.Next(); in[(p.ID()+1)%n] != nil {
				return nil
			}
		}
	}
	cases := []struct {
		name string
		cfg  Config
		body func(*Proc) error
		want error // nil: any error, or success when ok
		ok   bool
	}{
		{"error", Config{}, func(p *Proc) error {
			if p.ID() == 3 {
				p.Next()
				return errBody
			}
			return idle(p)
		}, errBody, false},
		{"panic", Config{}, func(p *Proc) error {
			if p.ID() == 3 {
				p.Next()
				panic("boom")
			}
			return idle(p)
		}, nil, false},
		{"round-limit", Config{MaxRounds: 5}, idle, ErrRoundLimit, false},
		{"stalled", Config{FaultPlan: crashPlan{}, QuiesceLimit: 4}, idle, ErrStalled, false},
		{"crashed", Config{FaultPlan: crashPlan{}}, func(p *Proc) error {
			for r := 0; r < 3; r++ {
				p.Next()
			}
			return nil
		}, nil, true},
	}
	for _, c := range cases {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par%d", c.name, par), func(t *testing.T) {
				cfg := c.cfg
				cfg.N, cfg.Bandwidth, cfg.Model, cfg.Parallelism = n, 8, Unicast, par
				before := runtime.NumGoroutine()
				var unwound atomic.Int32
				for run := 0; run < 5; run++ {
					_, err := RunProcs(cfg, func(p *Proc) error {
						defer unwound.Add(1)
						return c.body(p)
					})
					if c.ok {
						if err != nil {
							t.Fatal(err)
						}
						continue
					}
					if err == nil {
						t.Fatal("run succeeded, want an error")
					}
					if c.want != nil && !errors.Is(err, c.want) {
						t.Fatalf("err = %v, want %v", err, c.want)
					}
				}
				if got := settleGoroutines(before); got > before {
					t.Fatalf("%d goroutines leaked over 5 runs", got-before)
				}
				if got := unwound.Load(); got != 5*n {
					t.Fatalf("%d bodies unwound, want %d", got, 5*n)
				}
			})
		}
	}
}

// Ctx.Rand draws node id's documented sequence, whether or not the
// source is built lazily.
func TestRandSeedPerNode(t *testing.T) {
	const n, draws, seed = 5, 8, 42
	res, err := RunProcs(Config{N: n, Bandwidth: 8, Model: Unicast, Seed: seed}, func(p *Proc) error {
		p.Next()
		got := make([]int64, draws)
		for i := range got {
			got[i] = p.Rand().Int63()
		}
		p.SetOutput(got)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, out := range res.Outputs {
		want := rand.New(rand.NewSource(seed*1_000_000_007 + int64(id)))
		for i, v := range out.([]int64) {
			if w := want.Int63(); v != w {
				t.Fatalf("node %d draw %d = %d, want %d", id, i, v, w)
			}
		}
	}
}

// A run whose nodes never call Rand pays for no randomness source
// (~5 KB each when seeded eagerly).
func TestAllocRegressionLazyRand(t *testing.T) {
	const n, runs = 64, 10
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = NodeFunc(func(*Ctx, []*bits.Buffer) (bool, error) { return true, nil })
	}
	cfg := Config{N: n, Bandwidth: 8, Model: Unicast, Parallelism: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		if _, err := Run(cfg, nodes); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(n * 4096 / 2); perRun >= limit {
		t.Fatalf("one %d-node round allocates %d B, want < %d B (no rand sources)", n, perRun, limit)
	}
	t.Logf("%d B per %d-node one-round run", perRun, n)
}
