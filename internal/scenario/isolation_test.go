package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

func mustCell(t *testing.T, family string, n int, engine, protocol string, seed int64) Cell {
	t.Helper()
	c, err := CellFromNames(family, n, engine, protocol, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// canonCell zeroes a cell result's wall times, the only fields that may
// differ between two runs of one cell.
func canonCell(cr CellResult) CellResult {
	cr.OracleNs, cr.EngineNs = 0, 0
	return cr
}

// TestConcurrentCellsIsolated runs cells with different engine
// environments side by side in one process — through RunCell a clean
// cell, a heavily faulted cell and a traced cell, and through
// RunMatrixOpts a faulted and a clean matrix — and requires every result
// to equal its serial run, and the traced cell's archive to hold its own
// engine leg's trace only. The comparison is the test: an adversary or
// sink leaking from one cell into another is race-free, so -race alone
// cannot see it, but it changes results.
func TestConcurrentCellsIsolated(t *testing.T) {
	clean := mustCell(t, "gnp", 12, "par4", "connectivity", 3)
	faulted := mustCell(t, "gnp", 24, "par4", "routing", 4)
	traced := mustCell(t, "gnp", 12, "par4", "connectivity", 5)
	drop := CellOptions{Faults: fault.Spec{Drop: 0.3}}
	wantCells := [3]CellResult{
		canonCell(RunCell(clean, CellOptions{})),
		canonCell(RunCell(faulted, drop)),
		canonCell(RunCell(traced, CellOptions{})),
	}
	if wantCells[0].Outcome != OutcomeOK || wantCells[1].Outcome != OutcomeDetected {
		t.Fatalf("serial outcomes %s/%s, want ok/detected", wantCells[0].Outcome, wantCells[1].Outcome)
	}

	m := tinyMatrix(t)
	if err := m.FilterProtocols("connectivity,routing"); err != nil {
		t.Fatal(err)
	}
	matOpts := [2]RunOptions{{Shards: 2, Faults: fault.Spec{Drop: 0.3}}, {Shards: 2}}
	var wantReps [2]*Report
	for k, opt := range matOpts {
		rep, err := RunMatrixOpts(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		stripTimings(rep)
		wantReps[k] = rep
	}
	wantTrace := fmt.Sprintf("trace-s%d.ndjson", traced.Seed+1)

	for it := 0; it < 40; it++ {
		dir := filepath.Join(t.TempDir(), "traces")
		ds := obs.NewDirSink(dir)
		var (
			wg    sync.WaitGroup
			cells [3]CellResult
			reps  [2]*Report
			errs  [2]error
		)
		goRun := func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f()
			}()
		}
		goRun(func() { cells[0] = RunCell(clean, CellOptions{}) })
		goRun(func() { cells[1] = RunCell(faulted, drop) })
		goRun(func() { cells[2] = RunCell(traced, CellOptions{Sink: ds.Factory()}) })
		for k, opt := range matOpts {
			goRun(func() { reps[k], errs[k] = RunMatrixOpts(m, opt) })
		}
		wg.Wait()
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}

		for i, got := range cells {
			if got = canonCell(got); got != wantCells[i] {
				t.Fatalf("iteration %d: concurrent cell %s differs from its serial run:\n  serial:     %+v\n  concurrent: %+v",
					it, got.Protocol, wantCells[i], got)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != wantTrace {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("iteration %d: traced cell archived %v, want only %s", it, names, wantTrace)
		}
		for k, rep := range reps {
			if errs[k] != nil {
				t.Fatal(errs[k])
			}
			stripTimings(rep)
			if !reflect.DeepEqual(rep, wantReps[k]) {
				t.Fatalf("iteration %d: concurrent matrix run (faults %q) differs from its serial run:\n  serial:     %+v\n  concurrent: %+v",
					it, matOpts[k].Faults, wantReps[k].Cells, rep.Cells)
			}
		}
	}
}

// TestTraceDirErrorsSurface points the trace archive below a regular
// file: the matrix runner must fail instead of returning a report with
// no traces, and a RunCell caller sees the error on its DirSink's Close.
func TestTraceDirErrorsSurface(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "traces")

	m := tinyMatrix(t)
	if rep, err := RunMatrixOpts(m, RunOptions{Shards: 2, TraceDir: dir}); err == nil {
		t.Fatalf("RunMatrixOpts with an unwritable TraceDir returned a report (%d cells) and no error", len(rep.Cells))
	}

	ds := obs.NewDirSink(dir)
	if res := RunCell(m.Expand()[0], CellOptions{Sink: ds.Factory()}); res.Outcome != OutcomeOK {
		t.Fatalf("cell outcome %s: tracing must not change the classification", res.Outcome)
	}
	if err := ds.Close(); err == nil {
		t.Fatal("DirSink.Close reported no error for an unwritable directory")
	}
}
