package scenario

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// RunOptions extends the matrix run with the resilience knobs of the
// fault-injection harness. The zero value reproduces RunMatrix exactly.
type RunOptions struct {
	// Shards is the worker-pool width over cells; 0 = GOMAXPROCS.
	Shards int
	// Timeout is the per-leg deadline; 0 disables it. A timed-out leg's
	// goroutine is abandoned (the engine has no preemption), so timeouts
	// classify the cell as infra rather than waiting forever.
	Timeout time.Duration
	// Retries is how many times an infra-failed leg (panic, timeout) is
	// re-run in quarantine — in place, on the cell's shard — before the
	// cell is recorded as infra.
	Retries int
	// RetryBackoff is the base pause before each quarantine retry:
	// attempt a sleeps Backoff(RetryBackoff, RetryBackoffCap, a, cell
	// seed, cell key) — capped exponential with deterministic jitter —
	// so retries of a transiently overloaded box spread out instead of
	// hammering it immediately. 0 keeps the historical immediate retry.
	RetryBackoff time.Duration
	// RetryBackoffCap clamps the retry backoff; 0 = 32·RetryBackoff.
	RetryBackoffCap time.Duration
	// Sleep is the pause hook used by the retry backoff; nil =
	// time.Sleep. Tests inject a recorder so backoff schedules are
	// asserted without real sleeps.
	Sleep func(time.Duration)
	// Faults is the adversary. When active, every cell runs with
	// Leg.Faulty set on both legs (hardened protocol variants,
	// fault-stable outputs) and the plan's factory rides in the engine
	// leg's core.Env only; the oracle legs stay clean and define the
	// expected outputs.
	Faults fault.Spec
	// Ledger is the path of an append-only JSONL run ledger. When set,
	// each cell is recorded as soon as it completes, and a
	// re-run with the same matrix and options resumes: ledgered cells
	// are not re-executed and their recorded results (timings included)
	// flow into the final report unchanged, so an interrupted run
	// completes to a report identical to an uninterrupted one.
	Ledger string
	// TraceDir, when non-empty, archives an engine-trace/v1 NDJSON file
	// per engine-leg run under the directory (obs.DirSink naming:
	// trace-s<seed>.ndjson). Only the engine legs are traced — the
	// oracle legs stay untraced, exactly as they stay clean under
	// faults — and because tracing cannot change Outputs or Stats
	// (core's traced-vs-untraced invariant), a traced matrix classifies
	// identically to an untraced one. A trace that cannot be written
	// fails the run.
	TraceDir string
}

// RunMatrixOpts is the resilient matrix runner: every pending cell runs
// through RunCell — guarded legs (panic capture + optional deadline),
// in-place quarantine retries, fault injection on the engine leg — on a
// core.ParallelFor pool of Shards workers, and is ledgered as it
// completes. Each leg carries its own core.Env, so cells on different
// shards never see each other's worker count, adversary or sink. The
// error sources are the ledger (I/O, or a ledger written by a different
// run) and the trace archive.
func RunMatrixOpts(m *Matrix, opt RunOptions) (rep *Report, err error) {
	cells := m.Expand()
	shards := core.ResolveParallelism(opt.Shards)
	faulty := opt.Faults.Active()

	led, prior, err := openLedger(opt.Ledger, m, opt)
	if err != nil {
		return nil, err
	}
	if led != nil {
		defer led.Close()
	}

	results := make([]CellResult, len(cells))
	pending := make([]int, 0, len(cells))
	for i, c := range cells {
		if cr, ok := prior[cellKey(c)]; ok {
			results[i] = cr
		} else {
			pending = append(pending, i)
		}
	}

	copt := CellOptions{
		Faults:          opt.Faults,
		Timeout:         opt.Timeout,
		Retries:         opt.Retries,
		RetryBackoff:    opt.RetryBackoff,
		RetryBackoffCap: opt.RetryBackoffCap,
		Sleep:           opt.Sleep,
	}
	if opt.TraceDir != "" {
		ds := obs.NewDirSink(opt.TraceDir)
		copt.Sink = ds.Factory()
		defer func() {
			if cerr := ds.Close(); cerr != nil && err == nil {
				rep, err = nil, fmt.Errorf("scenario: trace archive: %w", cerr)
			}
		}()
	}

	wallStart := time.Now()
	var (
		mu     sync.Mutex
		ledErr error
	)
	core.ParallelFor(shards, len(pending), func(k int) {
		i := pending[k]
		cr := RunCell(cells[i], copt)
		results[i] = cr
		if led == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if ledErr == nil {
			ledErr = led.AppendCell(cellKey(cells[i]), cr)
		}
	})
	if ledErr != nil {
		return nil, ledErr
	}

	rep = &Report{
		Schema:   ReportSchema,
		Date:     time.Now().Format("20060102"),
		BaseSeed: m.BaseSeed,
		Shards:   shards,
		Cells:    results,
	}
	if faulty {
		rep.Faults = opt.Faults.String()
	}
	rep.Summary = summarize(rep, m)
	rep.Summary.WallNs = time.Since(wallStart).Nanoseconds()
	return rep, nil
}

// runLegGuarded wraps runLeg in a dedicated goroutine with panic capture
// and an optional deadline. Panics inside engine node bodies are already
// converted to node errors by core (see procNode.Step); this guard
// additionally catches panics in the adapter code and in local reference
// computations, and bounds the leg's wall time. A timed-out goroutine is
// abandoned, not cancelled — its writes land in its own legOut, which is
// discarded.
func runLegGuarded(c Cell, oracle bool, opt CellOptions) legOut {
	ch := make(chan legOut, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- legOut{err: fmt.Errorf("leg panic: %v", r), infra: true, attempts: 1}
			}
		}()
		out := runLeg(c, oracle, opt)
		out.attempts = 1
		ch <- out
	}()
	if opt.Timeout <= 0 {
		return <-ch
	}
	t := time.NewTimer(opt.Timeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out
	case <-t.C:
		return legOut{err: fmt.Errorf("leg timed out after %v", opt.Timeout), infra: true, attempts: 1}
	}
}
