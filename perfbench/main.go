// Command perfbench is the repository's benchmark. It runs one named
// workload of the congested-clique simulator through its public entry
// points (scenario.RunMatrixOpts; the scenariod server, worker and
// client; the kernel packages), checks every output, and prints its
// metrics. Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload quick-matrix --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it measures an untraced run and prints the end-to-end
// metrics; with --trace 1 it repeats the untraced run, adds a traced
// run on the same inputs, and prints the per-layer metrics. The last
// line of standard output is one JSON object: correct, attempted,
// failed and metrics. Workloads, metrics and the layer each metric
// belongs to are described in perfbench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
)

// buildDir holds everything the benchmark builds and writes, under the
// repository root.
const buildDir = ".bench_build"

// workloads are the in-process workloads by name; fleetOpen is the other.
var workloads = map[string]matrixWorkload{
	"quick-matrix":   quickMatrix,
	"large-n":        largeN,
	"faulted-sketch": faultedSketch,
}

const fleetOpen = "fleet-open"

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"cells_per_s", "1/s"},
	{"sim_rounds_per_s", "1/s"},
	{"user_cpu_ms_per_cell", "ms"},
	{"cell_latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does
// not exercise reads 0 on it.
func perLayer() []metricDef {
	defs := []metricDef{
		{"scenariod.queued_ms_p50", "ms"},
		{"scenariod.lease_hit_ratio", "ratio"},
		{"scenariod.lease_ms_p50", "ms"},
		{"scenariod.result_ms_p50", "ms"},
		{"scenariod.submitting_ms_p50", "ms"},
		{"scenariod.submit_ms_p50", "ms"},
		{"scenariod.executing_ms_p50", "ms"},
		{"scenariod.cache_hit_ratio", "ratio"},
		{"scenariod.requests_per_cell", "count"},
		{"fleet.cell_latency_p95_ms", "ms"},
		{"fleet.run_latency_p50_ms", "ms"},
		{"loadgen.late_p95_ms", "ms"},
		{"scenario.gen_ms", "ms"},
		{"scenario.unattributed_ms", "ms"},
		{"scenario.oracle_ms", "ms"},
		{"scenario.engine_ms", "ms"},
	}
	for _, p := range protocolNames() {
		defs = append(defs, metricDef{"scenario.leg_ms." + p, "ms"})
	}
	return append(defs, []metricDef{
		{"scenario.alloc_mb_per_cell", "MB"},
		{"core.rounds", "count"},
		{"core.steps", "count"},
		{"core.sent_bits", "count"},
		{"core.delivered_bits", "count"},
		{"core.quiet_round_share", "ratio"},
		{"core.fault_drops", "count"},
		{"core.round_ms", "ms"},
		{"core.ns_per_round", "ns"},
		{"core.ns_per_delivered_kbit", "ns"},
		{"core.local_ms", "ms"},
		{"sketch.boruvka_phases", "count"},
		{"sketch.ms_per_phase", "ms"},
		{"semiring.minplus_ns", "ns"},
		{"semiring.minplus_bytes", "B"},
		{"f2.boolmul_m4r_ns", "ns"},
		{"f2.boolmul_m4r_bytes", "B"},
		{"sketch.merge_ns", "ns"},
		{"sketch.merge_bytes", "B"},
		{"sketch.recover_ns", "ns"},
		{"sketch.recover_bytes", "B"},
		{"bits.xorwords_ns", "ns"},
		{"bits.xorwords_bytes", "B"},
		{"trace.overhead_ratio", "ratio"},
	}...)
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	procs    int
	workDir  string
	ref      *RefWorkload // pinned outputs; nil off the reference seed
	// unitCells is how many cells each matrix run must return on any
	// seed: the reference's count. 0 while the reference is being
	// written.
	unitCells int
	table     *table
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// table collects the human-readable lines printed above the result.
type table struct{ lines []string }

func (t *table) add(name, unit string, v float64) {
	t.lines = append(t.lines, fmt.Sprintf("%-34s %14.4f %s", name, v, unit))
}

// pct adds a percentile line, or says why the percentile is withheld.
func (t *table) pct(name, unit string, samples []float64, q float64) {
	if v, ok := percentile(samples, q); ok {
		t.add(name, unit, v)
		return
	}
	t.lines = append(t.lines, fmt.Sprintf("%-34s %14s (%d samples: fewer than %d beyond it)", name, "withheld", len(samples), minBeyond))
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: quick-matrix, large-n, faulted-sketch or fleet-open")
	seed := fs.Int64("seed", referenceSeed, "workload seed")
	seconds := fs.Int("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 adds a traced run and prints per-layer metrics")
	probe := fs.Bool("setup-probe", false, "set the workload up, print the instant it is ready, and exit")
	writeRef := fs.Bool("write-reference", false, "record the reference seed's outputs in perfbench/reference.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	_, inProcess := workloads[*workload]
	if !inProcess && *workload != fleetOpen {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if *writeRef {
		*seed, *trace = referenceSeed, 1
	}

	// GOMAXPROCS, matrix shards and fleet workers never exceed nproc.
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		procs:   procs,
		workDir: filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid())),
		table:   &table{},
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir)

	if *probe {
		if err := setupProbe(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup probe: %v\n", err)
			return 1
		}
		return 0
	}

	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if rw, ok := ref.Workloads[cfg.workload]; ok && !*writeRef {
		if cfg.seed == ref.Seed {
			cfg.ref = &rw
		}
		cfg.unitCells = len(rw.Cells)
	}

	chk := &Check{}
	out := Metrics{}
	var setups []float64
	if !cfg.trace {
		if setups, err = measureSetup(cfg, setupGroups/2); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	var refOut *RefWorkload
	if *writeRef {
		refOut = &RefWorkload{}
	}
	if inProcess {
		err = runMatrix(workloads[cfg.workload], cfg, chk, out, refOut)
	} else {
		err = runFleet(cfg, chk, out, refOut)
	}
	if err != nil {
		chk.problem("%v", err)
	}
	if !cfg.trace && err == nil {
		more, err := measureSetup(cfg, setupGroups-len(setups))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		out.Set("setup_s", "s", median(append(setups, more...)))
		for _, d := range endToEnd {
			if _, ok := out[d.name]; !ok {
				chk.problem("metric %s was not measured", d.name)
			}
		}
	}
	if cfg.trace && err == nil {
		runKernels(cfg.seed, chk, out)
		for _, d := range perLayer() {
			if _, ok := out[d.name]; !ok {
				out.Set(d.name, d.unit, 0)
			}
		}
	}

	if *writeRef && chk.Correct() {
		ref.Seed = referenceSeed
		if ref.Workloads == nil {
			ref.Workloads = map[string]RefWorkload{}
		}
		ref.Workloads[cfg.workload] = *refOut
		if err := writeReference(ref); err != nil {
			chk.problem("writing the reference: %v", err)
		}
	}
	report(cfg, chk, out)
	if !chk.Correct() {
		return 1
	}
	return 0
}

// report prints the host record, every metric by name and unit, the
// check's findings, and last the result line.
func report(cfg runConfig, chk *Check, out Metrics) {
	host, _ := json.Marshal(hostRecord(cfg.workload, cfg.seed, cfg.trace, cfg.seconds))
	fmt.Printf("# host %s\n", host)
	for _, name := range out.Names() {
		m := out[name]
		fmt.Printf("# %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, line := range cfg.table.lines {
		fmt.Printf("# %s\n", line)
	}
	failedFrac := 0.0
	if chk.Attempted > 0 {
		failedFrac = float64(chk.Failed) / float64(chk.Attempted)
	}
	fmt.Printf("# %-34s %14.4f ratio (%d of %d cells)\n", "failed_frac", failedFrac, chk.Failed, chk.Attempted)
	for _, n := range chk.Notes {
		fmt.Printf("# note: %s\n", n)
	}
	for _, p := range chk.Problems {
		fmt.Printf("# FAILED: %s\n", p)
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
	}
	res, _ := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   Metrics `json:"metrics"`
	}{chk.Correct(), max(chk.Attempted, 1), chk.Failed, out})
	fmt.Println(string(res))
}

// A run sets its workload up setupGroups × setupTries times, each time
// in a fresh process, half of the groups before the measured work and
// half after it. setup_s is the median over groups of each group's
// fastest set-up: the fastest of a few drops the set-ups that another
// process on the host delayed, and the median over groups spread across
// the run keeps one disturbed moment from carrying it.
const (
	setupGroups = 16
	setupTries  = 3
)

// measureSetup launches the benchmark itself in probe mode, groups ×
// setupTries times, and returns each group's fastest time in seconds
// from launching the process until its workload could run its first
// cell: process start, package initialisation, and building the matrix
// or bringing the server and cache up and the workers polling.
func measureSetup(cfg runConfig, groups int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	best := make([]float64, groups)
	for g := range best {
		for try := 0; try < setupTries; try++ {
			var stdout bytes.Buffer
			cmd := exec.Command(exe, "--setup-probe", "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10))
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			start := time.Now()
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("setup probe: %w", err)
			}
			ready, err := strconv.ParseInt(strings.TrimSpace(stdout.String()), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("setup probe printed %q", stdout.String())
			}
			if s := float64(ready-start.UnixNano()) / 1e9; try == 0 || s < best[g] {
				best[g] = s
			}
		}
	}
	return best, nil
}

// setupProbe sets the workload up as a measured run would, prints the
// instant its first cell could run, and tears it down. A fleet is ready
// once every worker's first lease call has been answered.
func setupProbe(cfg runConfig) error {
	if w, ok := workloads[cfg.workload]; ok {
		m, err := w.build(cfg.seed, 0)
		if err != nil {
			return err
		}
		cells := m.Expand()
		ready := time.Now()
		if len(cells) == 0 {
			return fmt.Errorf("workload %s expands to no cells", cfg.workload)
		}
		fmt.Println(ready.UnixNano())
		return nil
	}
	lw := newLeaseWatch(cfg.procs)
	f, err := startFleet(cfg.workDir, cfg.procs, lw.wrap, nil, nil)
	if err != nil {
		return err
	}
	select {
	case <-lw.ready:
	case <-time.After(10 * time.Second):
		f.stop()
		return errors.New("workers made no lease call within 10 s")
	}
	ready := time.Now()
	fmt.Println(ready.UnixNano())
	return f.stop()
}

// protocolNames lists the standing protocols, sorted.
func protocolNames() []string {
	var names []string
	for _, p := range scenario.DefaultProtocols() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}
