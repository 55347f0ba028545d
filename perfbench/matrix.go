package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// matrixWorkload is a workload run in process through
// scenario.RunMatrixOpts, one matrix run ("unit") after another.
type matrixWorkload struct {
	// build returns the matrix of unit u of a run with the given seed.
	build func(seed int64, u int) (*scenario.Matrix, error)
	// sameUnits is set when every unit of a run is the same matrix, so
	// each repeat must reproduce the first exactly.
	sameUnits bool
	faults    fault.Spec
}

// minUnits makes a run's best unit the best of at least three matrix
// runs.
const minUnits = 3

func subMatrix(seed int64, families, protocols string, n int) (*scenario.Matrix, error) {
	m := scenario.DefaultMatrix(true, seed)
	if err := m.FilterFamilies(families); err != nil {
		return nil, err
	}
	if err := m.FilterProtocols(protocols); err != nil {
		return nil, err
	}
	if err := m.FilterEngines(scenario.ParEngine.Name); err != nil {
		return nil, err
	}
	m.Sizes = []int{n}
	return m, nil
}

var (
	quickMatrix = matrixWorkload{
		build:     func(seed int64, _ int) (*scenario.Matrix, error) { return scenario.DefaultMatrix(true, seed), nil },
		sameUnits: true,
	}
	largeN = matrixWorkload{
		build: func(seed int64, _ int) (*scenario.Matrix, error) {
			return subMatrix(seed, "gnp,components", "connectivity,sketchmst,spanforest,apsp,khop", 96)
		},
		sameUnits: true,
	}
	// faultedSketch lengthens a run with further base seeds, never with
	// a higher drop rate or a larger n: at drop=0.002 the stacks start
	// to run out and cells come back detected.
	faultedSketch = matrixWorkload{
		build: func(seed int64, u int) (*scenario.Matrix, error) {
			return subMatrix(seed*1000+int64(u), "gnp,components,wgnp", "connectivity,spanforest,sketchmst", 48)
		},
		faults: fault.Spec{Drop: 0.001},
	}
)

// unitRun is one untraced matrix run and what it cost.
type unitRun struct {
	rep        *scenario.Report
	set        cellSet
	wall       time.Duration
	user, cpu  time.Duration // process CPU: user, and user+system
	allocBytes uint64
}

func runUnit(m *scenario.Matrix, opt scenario.RunOptions) (unitRun, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	user0, cpu0 := cpuTime()
	start := time.Now()
	rep, err := scenario.RunMatrixOpts(m, opt)
	wall := time.Since(start)
	user1, cpu1 := cpuTime()
	if err != nil {
		return unitRun{}, err
	}
	runtime.ReadMemStats(&ms)
	u := unitRun{rep: rep, set: cellSet{}, wall: wall, user: user1 - user0, cpu: cpu1 - cpu0, allocBytes: ms.TotalAlloc - alloc0}
	u.set.add(rep.Cells)
	return u, nil
}

// legTimer is the traced run's timing wrapper around every family
// generator and protocol leg of a matrix. Each shard runs one wrapped
// call at a time, so the wrapped times can be set against shards × wall.
type legTimer struct {
	gen    atomic.Int64
	oracle map[string]*atomic.Int64 // by protocol; keys fixed at wrap time
	engine map[string]*atomic.Int64

	mu       sync.Mutex
	engineNs map[int64]int64 // engine-leg time by the leg's run seed
}

func newLegTimer(m *scenario.Matrix) *legTimer {
	t := &legTimer{oracle: map[string]*atomic.Int64{}, engine: map[string]*atomic.Int64{}, engineNs: map[int64]int64{}}
	for _, p := range m.Protocols {
		t.oracle[p.Name], t.engine[p.Name] = new(atomic.Int64), new(atomic.Int64)
	}
	return t
}

// wrap returns a copy of m whose generators and legs are timed by t.
func (t *legTimer) wrap(m *scenario.Matrix) *scenario.Matrix {
	w := *m
	w.Families = make([]scenario.Family, len(m.Families))
	for i, f := range m.Families {
		gen := f.Gen
		f.Gen = func(n int, seed int64) *graph.Graph {
			start := time.Now()
			g := gen(n, seed)
			t.gen.Add(int64(time.Since(start)))
			return g
		}
		w.Families[i] = f
	}
	w.Protocols = make([]scenario.Protocol, len(m.Protocols))
	for i, p := range m.Protocols {
		run, oracle, engine := p.Run, t.oracle[p.Name], t.engine[p.Name]
		p.Run = func(g *graph.Graph, bandwidth int, seed int64, leg scenario.Leg) (*scenario.LegResult, error) {
			start := time.Now()
			res, err := run(g, bandwidth, seed, leg)
			d := int64(time.Since(start))
			if leg.Oracle {
				oracle.Add(d)
			} else {
				engine.Add(d)
				t.mu.Lock()
				t.engineNs[seed] += d
				t.mu.Unlock()
			}
			return res, err
		}
		w.Protocols[i] = p
	}
	return &w
}

func (t *legTimer) total(by map[string]*atomic.Int64) int64 {
	var s int64
	for _, v := range by {
		s += v.Load()
	}
	return s
}

// traceTotals folds the engine traces of one traced matrix run.
type traceTotals struct {
	files         int
	aborted       int // engine runs that failed under faults
	rounds, steps int64
	sentBits      int64
	deliveredBits int64
	faultDrops    int64
	wallNs        int64
	phases        int64 // Borůvka phases (sketch protocols)
	phaseWallNs   int64
	wallBySeed    map[int64]int64
}

// exact returns the deterministic counts, the ones that must repeat.
func (tt traceTotals) exact() map[string]int64 {
	return map[string]int64{
		"core.rounds":           tt.rounds,
		"core.steps":            tt.steps,
		"core.sent_bits":        tt.sentBits,
		"core.delivered_bits":   tt.deliveredBits,
		"core.fault_drops":      tt.faultDrops,
		"sketch.boruvka_phases": tt.phases,
	}
}

// analyzeTraces loads every engine trace under dir, reconciles each
// against its own footer Stats and folds them. Only a faulted run may
// leave traces without a footer.
func analyzeTraces(dir string, faulty bool) (traceTotals, error) {
	tt := traceTotals{wallBySeed: map[int64]int64{}}
	paths, err := filepath.Glob(filepath.Join(dir, "*.ndjson"))
	if err != nil {
		return tt, err
	}
	for _, p := range paths {
		tr, err := obs.LoadFile(p)
		if err != nil {
			return tt, err
		}
		switch {
		case tr.Footer == nil && faulty:
			// An engine run the adversary made fail leaves a trace with
			// no footer; the protocol recovers with a fresh run.
			tt.aborted++
		default:
			if err := obs.Reconcile(tr); err != nil {
				return tt, fmt.Errorf("%s: %w", filepath.Base(p), err)
			}
		}
		s := obs.Sum(tr)
		tt.files++
		tt.rounds += int64(s.Rounds)
		tt.steps += int64(s.Steps)
		tt.sentBits += s.SentBits
		tt.deliveredBits += s.DeliveredBits
		tt.faultDrops += int64(s.Faults.Drops)
		tt.wallNs += s.WallNs
		tt.wallBySeed[tr.Meta.Seed] += s.WallNs
		for _, ph := range obs.Phases(tr) {
			if strings.HasPrefix(ph.Name, "boruvka:") {
				tt.phases++
				tt.phaseWallNs += ph.WallNs
			}
		}
	}
	return tt, nil
}

// tracedUnit is one traced matrix run.
type tracedUnit struct {
	wall   time.Duration
	timer  *legTimer
	traces traceTotals
	set    cellSet
}

func runTracedUnit(m *scenario.Matrix, opt scenario.RunOptions, dir string) (tracedUnit, error) {
	timer := newLegTimer(m)
	opt.TraceDir = dir
	start := time.Now()
	rep, err := scenario.RunMatrixOpts(timer.wrap(m), opt)
	wall := time.Since(start)
	if err != nil {
		return tracedUnit{}, err
	}
	tt, err := analyzeTraces(dir, opt.Faults.Active())
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		return tracedUnit{}, err
	}
	tu := tracedUnit{wall: wall, timer: timer, traces: tt, set: cellSet{}}
	tu.set.add(rep.Cells)
	return tu, nil
}

// runMatrix measures an in-process workload: untraced units until the
// time is spent, then, with trace, as many traced units on the same
// seeds.
func runMatrix(w matrixWorkload, cfg runConfig, chk *Check, out Metrics, refOut *RefWorkload) error {
	opt := scenario.RunOptions{Shards: cfg.procs, Faults: w.faults}

	var units []unitRun
	cellsSeen := 0
	start := time.Now()
	for u := 0; ; u++ {
		m, err := w.build(cfg.seed, u)
		if err != nil {
			return err
		}
		ur, err := runUnit(m, opt)
		if err != nil {
			return err
		}
		what := fmt.Sprintf("unit %d", u)
		chk.cells(ur.rep.Cells, what)
		chk.cellCount(len(ur.rep.Cells), cfg.unitCells, what)
		switch {
		case cfg.ref != nil && (u == 0 || w.sameUnits):
			chk.reference(ur.set, cfg.ref, what)
		case w.sameUnits && u > 0:
			chk.compare(ur.set, units[0].set, what, "unit 0")
		}
		units = append(units, ur)
		cellsSeen += len(ur.rep.Cells)
		if len(units) >= minUnits && time.Since(start) >= cfg.duration() {
			break
		}
	}
	if refOut != nil {
		refOut.Cells = units[0].set
		refOut.Digest = units[0].set.digest()
	}

	// Units that repeat one matrix report their best unit: the host's
	// other load only ever slows a unit down, so the fastest unit is the
	// one it disturbed least, and a cell's latency is its fastest over the
	// units. Units on different inputs (faulted-sketch) differ in their
	// work, so their figures pool every unit.
	var best, pool unitFigures
	fastest := map[string]float64{}
	for i, u := range units {
		var rounds int64
		for _, c := range u.rep.Cells {
			// Both legs run the oracle's round count on every clean ok
			// cell; the report carries the oracle leg's.
			rounds += 2 * int64(c.Rounds)
			ms := float64(c.OracleNs+c.EngineNs) / 1e6
			if f, ok := fastest[cellKey(c)]; !ok || ms < f {
				fastest[cellKey(c)] = ms
			}
		}
		f := unitFigures{cells: len(u.rep.Cells), rounds: rounds, wall: u.wall, user: u.user, cpu: u.cpu}
		if i == 0 {
			best = f
		} else {
			best = best.best(f)
		}
		pool = pool.plus(f)
	}
	if !w.sameUnits {
		best = pool
	}
	rate, roundRate, userPerCell, cpuPerCell := best.rates()
	latencies := make([]float64, 0, len(fastest))
	for _, ms := range fastest {
		latencies = append(latencies, ms)
	}
	if !cfg.trace {
		out.Set("cells_per_s", "1/s", rate)
		out.Set("sim_rounds_per_s", "1/s", roundRate)
		out.Set("user_cpu_ms_per_cell", "ms", userPerCell)
		out.Set("cell_latency_p50_ms", "ms", median(latencies))
		out.Set("peak_rss_mb", "MB", peakRSSMB())
		cfg.table.add("cpu_ms_per_cell", "ms", cpuPerCell)
		cfg.table.add("units", "count", float64(len(units)))
		cfg.table.add("cells", "count", float64(cellsSeen))
		cfg.table.pct("cell_latency_p95_ms", "ms", latencies, 0.95)
		return nil
	}

	return traceMatrix(w, cfg, chk, out, units, refOut)
}

// unitFigures are the untraced figures of one unit, or of several.
type unitFigures struct {
	cells           int
	rounds          int64
	wall, user, cpu time.Duration
}

func (f unitFigures) plus(g unitFigures) unitFigures {
	return unitFigures{f.cells + g.cells, f.rounds + g.rounds, f.wall + g.wall, f.user + g.user, f.cpu + g.cpu}
}

// best takes each figure from whichever of two runs of the same inputs
// did better on it.
func (f unitFigures) best(g unitFigures) unitFigures {
	return unitFigures{f.cells, f.rounds, min(f.wall, g.wall), min(f.user, g.user), min(f.cpu, g.cpu)}
}

// rates returns cells and simulated rounds per wall second, and user
// and user+system CPU milliseconds per cell.
func (f unitFigures) rates() (cells, rounds, userMs, cpuMs float64) {
	n := float64(f.cells)
	return n / f.wall.Seconds(), float64(f.rounds) / f.wall.Seconds(),
		float64(f.user) / 1e6 / n, float64(f.cpu) / 1e6 / n
}

// layerSums accumulates the traced units' per-layer times.
type layerSums struct {
	units                             int
	wall                              time.Duration
	gen, oracle, engine, unattributed int64 // ns
	roundWall, phaseWall, phases      int64
	steps, delivered                  int64
	legs                              map[string]int64 // ns by protocol, both legs
}

// traceMatrix reruns the untraced units with every generator and leg
// timed and every engine leg traced, checks that each layer fits inside
// its parent, and sets the per-layer metrics.
func traceMatrix(w matrixWorkload, cfg runConfig, chk *Check, out Metrics, units []unitRun, refOut *RefWorkload) error {
	opt := scenario.RunOptions{Shards: cfg.procs, Faults: w.faults}
	var wantCounts map[string]int64
	if cfg.ref != nil {
		wantCounts = cfg.ref.Counts
	}
	sums := layerSums{legs: map[string]int64{}}
	var unit0 map[string]int64
	var first traceTotals
	for u := range units {
		m, err := w.build(cfg.seed, u)
		if err != nil {
			return err
		}
		tu, err := runTracedUnit(m, opt, filepath.Join(cfg.workDir, fmt.Sprintf("trace-u%d", u)))
		if err != nil {
			chk.problem("traced unit %d: %v", u, err)
			return nil
		}
		what := fmt.Sprintf("traced unit %d", u)
		chk.compare(tu.set, units[u].set, what, "the untraced run")
		sums.add(tu, cfg.procs, chk, what)
		exact := tu.traces.exact()
		switch {
		case u == 0:
			unit0, first = exact, tu.traces
			chk.counts(exact, wantCounts, what)
			if refOut != nil {
				refOut.Counts = exact
			}
		case w.sameUnits:
			for k, v := range exact {
				if v != unit0[k] {
					chk.problem("%s: exact count %s is %d, unit 0 had %d", what, k, v, unit0[k])
				}
			}
		}
	}

	n := float64(sums.units)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	out.Set("scenario.gen_ms", "ms", ms(sums.gen))
	out.Set("scenario.oracle_ms", "ms", ms(sums.oracle))
	out.Set("scenario.engine_ms", "ms", ms(sums.engine))
	out.Set("scenario.unattributed_ms", "ms", ms(sums.unattributed))
	for _, p := range scenario.DefaultProtocols() {
		out.Set("scenario.leg_ms."+p.Name, "ms", ms(sums.legs[p.Name]))
	}
	var alloc uint64
	cells := 0
	var untracedWall time.Duration
	for _, u := range units {
		alloc += u.allocBytes
		cells += len(u.rep.Cells)
		untracedWall += u.wall
	}
	out.Set("scenario.alloc_mb_per_cell", "MB", float64(alloc)/(1<<20)/float64(cells))
	for k, v := range unit0 {
		out.Set(k, "count", float64(v))
	}
	out.Set("core.quiet_round_share", "ratio", ratio(float64(first.steps-first.rounds), float64(first.steps)))
	out.Set("core.round_ms", "ms", ms(sums.roundWall))
	out.Set("core.local_ms", "ms", ms(sums.engine-sums.roundWall))
	out.Set("core.ns_per_round", "ns", ratio(float64(sums.roundWall), float64(sums.steps)))
	out.Set("core.ns_per_delivered_kbit", "ns", ratio(float64(sums.roundWall), float64(sums.delivered)/1000))
	out.Set("sketch.ms_per_phase", "ms", ratio(float64(sums.phaseWall)/1e6, float64(sums.phases)))
	out.Set("trace.overhead_ratio", "ratio", sums.wall.Seconds()/untracedWall.Seconds())
	return nil
}

// add folds one traced unit in, after checking that no layer exceeds
// its parent: the wrapped calls must fit in shards × wall, and the
// rounds of each engine leg in that leg's time.
func (s *layerSums) add(tu tracedUnit, shards int, chk *Check, what string) {
	t := tu.timer
	g, o, e := t.gen.Load(), t.total(t.oracle), t.total(t.engine)
	left, err := unattributed(shards, int64(tu.wall), g+o+e)
	if err != nil {
		chk.problem("%s: %v", what, err)
	}
	if tu.traces.wallNs > e {
		chk.problem("%s: engine rounds take %d ns, more than the %d ns of their engine legs", what, tu.traces.wallNs, e)
	}
	unmapped := 0
	for seed, ns := range tu.traces.wallBySeed {
		leg, ok := t.engineNs[seed]
		if !ok {
			unmapped++
			continue
		}
		if ns > leg {
			chk.problem("%s: leg seed %d: rounds take %d ns, more than its %d ns engine leg", what, seed, ns, leg)
		}
	}
	if unmapped > 0 && s.units == 0 {
		chk.note("%s: %d engine runs have a seed no leg was started with; checked in aggregate only", what, unmapped)
	}
	if tu.traces.aborted > 0 {
		chk.note("%s: %d of %d engine runs ended in an error under faults (traces without a footer)", what, tu.traces.aborted, tu.traces.files)
	}
	for name := range t.oracle {
		s.legs[name] += t.oracle[name].Load() + t.engine[name].Load()
	}
	s.units++
	s.wall += tu.wall
	s.gen, s.oracle, s.engine, s.unattributed = s.gen+g, s.oracle+o, s.engine+e, s.unattributed+left
	s.roundWall += tu.traces.wallNs
	s.phaseWall += tu.traces.phaseWallNs
	s.phases += tu.traces.phases
	s.steps += tu.traces.steps
	s.delivered += tu.traces.deliveredBits
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
