package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/scenariod"
)

// fleetRate is the open loop's offered load in runs per second; each
// run is fleetSpec's 4 tiny cells. It sits well under the capacity of a
// 2-worker fleet, so latency is mostly the workers' 200 ms lease poll,
// and it is high enough for 200 sends, the p95 lateness minimum, in 10 s.
const fleetRate = 20

// fleetRunCells is how many cells fleetSpec expands to.
const fleetRunCells = 4

// fleetSpec is one open-loop run: 4 tiny cells at n = 12 on par4.
func fleetSpec(seed int64) scenariod.RunSpec {
	return scenariod.RunSpec{
		Quick: true, BaseSeed: seed,
		Families: "gnp", Protocols: "routing,triangle,hdetect,circuit", Engines: scenario.ParEngine.Name,
		Sizes: []int{12},
	}
}

// fleetRefRuns is how many leading runs of the reference seed the
// reference pins.
const fleetRefRuns = 10

// runSeeds picks the base seed of each of n runs: even runs take a
// fresh seed, odd runs repeat a uniformly chosen earlier run's seed, so
// cache reads sit beside cache writes.
func runSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, n)
	for i := range seeds {
		if i%2 == 1 {
			seeds[i] = seeds[rng.Intn(i)]
		} else {
			seeds[i] = seed*100000 + int64(i)
		}
	}
	return seeds
}

// openLoop sends n requests on a fixed schedule: request i is due at
// start + i·interval, whether or not earlier ones have finished. One
// goroutine sends, so a send that stalls makes later sends late; the
// caller times each request from its due time, which charges the stall
// to every request it delayed, and reports the lateness. now and
// sleepUntil are the clock, replaced in tests.
func openLoop(start time.Time, interval time.Duration, n int, now func() time.Time,
	sleepUntil func(time.Time), send func(i int)) (due, sent []time.Time) {
	due, sent = make([]time.Time, n), make([]time.Time, n)
	for i := 0; i < n; i++ {
		due[i] = start.Add(time.Duration(i) * interval)
		if now().Before(due[i]) {
			sleepUntil(due[i])
		}
		sent[i] = now()
		send(i)
	}
	return due, sent
}

// lateness returns sent − due of each request in milliseconds.
func lateness(due, sent []time.Time) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		out[i] = float64(sent[i].Sub(due[i])) / 1e6
	}
	return out
}

// sinceDueMs is the latency of an event stamped in epoch milliseconds,
// counted from a due instant. Stamps have millisecond resolution, so a
// result within the due millisecond reads 0, never less.
func sinceDueMs(due time.Time, tMs int64) float64 {
	d := float64(tMs) - float64(due.UnixNano())/1e6
	if d < 0 {
		return 0
	}
	return d
}

// httpTimer is the traced run's timing middleware around the server's
// handler: per endpoint, each request's handler time; for leases,
// whether a job came back.
type httpTimer struct {
	mu        sync.Mutex
	ms        map[string][]float64
	requests  int
	leases    int
	leaseHits int
}

func newHTTPTimer() *httpTimer { return &httpTimer{ms: map[string][]float64{}} }

// endpoint names the API call a request makes.
func endpoint(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/v1/runs" && r.Method == http.MethodPost:
		return "submit"
	case p == "/v1/lease":
		return "lease"
	case p == "/v1/result":
		return "result"
	case p == "/v1/heartbeat":
		return "heartbeat"
	case p == "/v1/status":
		return "status"
	default:
		return "other"
	}
}

// headWriter keeps the first bytes of a response body.
type headWriter struct {
	http.ResponseWriter
	head []byte
}

func (w *headWriter) Write(p []byte) (int, error) {
	if room := 64 - len(w.head); room > 0 {
		w.head = append(w.head, p[:min(room, len(p))]...)
	}
	return w.ResponseWriter.Write(p)
}

func (t *httpTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hw := &headWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(hw, r)
		ms := float64(time.Since(start)) / 1e6
		ep := endpoint(r)
		t.mu.Lock()
		defer t.mu.Unlock()
		t.requests++
		t.ms[ep] = append(t.ms[ep], ms)
		if ep == "lease" {
			t.leases++
			if bytes.Contains(hw.head, []byte(`"`+scenariod.LeaseJob+`"`)) {
				t.leaseHits++
			}
		}
	})
}

// fleet is an in-process scenariod deployment: server on loopback
// HTTP with run ledgers on disk, and workers sharing one on-disk cache.
type fleet struct {
	srv       *scenariod.Server
	hs        *http.Server
	serveDone chan error
	client    *scenariod.Client
	ledgerDir string
	cancel    context.CancelFunc
	workers   sync.WaitGroup
	workerErr []error
}

// leaseWatch closes ready once every one of n workers has had its first
// lease call answered: from then on the fleet can run a cell.
type leaseWatch struct {
	n     int
	mu    sync.Mutex
	seen  map[string]bool
	ready chan struct{}
}

func newLeaseWatch(n int) *leaseWatch {
	return &leaseWatch{n: n, seen: map[string]bool{}, ready: make(chan struct{})}
}

func (lw *leaseWatch) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if endpoint(r) != "lease" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req scenariod.LeaseRequest
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		h.ServeHTTP(w, r)
		if err != nil {
			return
		}
		lw.mu.Lock()
		defer lw.mu.Unlock()
		if !lw.seen[req.Worker] {
			lw.seen[req.Worker] = true
			if len(lw.seen) == lw.n {
				close(lw.ready)
			}
		}
	})
}

// startFleet brings a fleet up and starts its workers. wrap, when set,
// wraps the server's handler; with hits and misses, the cache counts
// its reads.
func startFleet(dir string, workers int, wrap func(http.Handler) http.Handler, hits, misses *obs.Counter) (*fleet, error) {
	f := &fleet{ledgerDir: filepath.Join(dir, "ledger"), serveDone: make(chan error, 1)}
	cache, err := scenariod.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	if hits != nil {
		cache.SetMetrics(hits, misses)
	}
	f.srv, err = scenariod.New(scenariod.Config{LedgerDir: f.ledgerDir})
	if err != nil {
		return nil, err
	}
	handler := f.srv.Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.hs = &http.Server{Handler: handler}
	go func() { f.serveDone <- f.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	f.client = scenariod.NewClient(base)

	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.srv.StartSweeper(ctx, time.Second)
	f.workerErr = make([]error, workers)
	for i := 0; i < workers; i++ {
		w := &scenariod.Worker{Client: scenariod.NewClient(base), Name: fmt.Sprintf("w%d", i), Cache: cache}
		f.workers.Add(1)
		go func(i int) {
			defer f.workers.Done()
			f.workerErr[i] = w.Run(ctx)
		}(i)
	}
	return f, nil
}

// stop ends the workers, the HTTP server and the ledgers, and waits
// for each. Once the workers have returned, no request is in flight, so
// the server is closed outright: Shutdown would wait up to 5 s for any
// connection that a client dialled and then never used.
func (f *fleet) stop() error {
	f.cancel()
	f.workers.Wait()
	err := f.hs.Close()
	if serr := <-f.serveDone; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := f.srv.Close(); err == nil {
		err = cerr
	}
	for _, werr := range f.workerErr {
		if werr != nil && !errors.Is(werr, context.Canceled) && err == nil {
			err = werr
		}
	}
	return err
}

// fleetPass is one open-loop pass and what it measured.
type fleetPass struct {
	seeds   []int64
	ids     []string           // run ID per send; "" when refused
	due     []time.Time        // due instant per send
	reports []*scenario.Report // canonical report per send; nil when refused
	lateMs  []float64          // generator lateness, per send
	start   time.Time
	user    time.Duration // process CPU: user, and user+system
	cpu     time.Duration
	cells   int
	rounds  int64 // simulated rounds, both legs

	// From the ledger spans.
	lastDoneMs int64
	cellMs     []float64 // due → cell_completed, per cell
	runMs      []float64 // due → last cell_completed, per run
	busyMs     int64     // Σ lease intervals: the fleet's time on cells
	queuedMs   []float64
	execMs     []float64
	submitMs   []float64
}

// wall is the pass's duration, first due instant to last completion.
func (p *fleetPass) wall() time.Duration {
	return time.Duration(float64(p.lastDoneMs)*1e6 - float64(p.start.UnixNano()))
}

// runFleetPass offers the open loop for the configured time, waits for
// every run to finish, and folds reports and ledger spans.
func runFleetPass(cfg runConfig, dir string, runs int, timer *httpTimer, hits, misses *obs.Counter) (*fleetPass, error) {
	var wrap func(http.Handler) http.Handler
	if timer != nil {
		wrap = timer.wrap
	}
	f, err := startFleet(dir, cfg.procs, wrap, hits, misses)
	if err != nil {
		return nil, err
	}
	p, err := driveFleet(cfg, f, runs)
	if serr := f.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping the fleet: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	return p, p.foldLedgers(f.ledgerDir)
}

func driveFleet(cfg runConfig, f *fleet, n int) (*fleetPass, error) {
	p := &fleetPass{seeds: runSeeds(cfg.seed, n), ids: make([]string, n), reports: make([]*scenario.Report, n)}
	errs := make([]error, n)
	user0, cpu0 := cpuTime()
	p.start = time.Now()
	due, sent := openLoop(p.start, time.Second/fleetRate, n, time.Now,
		func(t time.Time) { time.Sleep(time.Until(t)) },
		func(i int) {
			resp, err := f.client.Submit(fleetSpec(p.seeds[i]))
			if err == nil {
				p.ids[i] = resp.RunID
			}
			errs[i] = err
		})
	p.due, p.lateMs = due, lateness(due, sent)

	// Wait for every admitted run to finish.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := f.client.Status()
		if err != nil {
			return nil, err
		}
		done := true
		for _, r := range st.Runs {
			done = done && r.Complete
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return nil, errors.New("open-loop runs still unfinished 60 s after the last send")
		}
		time.Sleep(20 * time.Millisecond)
	}
	user1, cpu1 := cpuTime()
	p.user, p.cpu = user1-user0, cpu1-cpu0

	for i, id := range p.ids {
		if errs[i] != nil {
			continue // refused: checkFleet counts its cells as failed
		}
		rep, err := f.client.Report(id)
		if err != nil {
			return nil, fmt.Errorf("run %s report: %w", id, err)
		}
		p.reports[i] = rep
		p.cells += len(rep.Cells)
		for _, c := range rep.Cells {
			p.rounds += 2 * int64(c.Rounds)
		}
	}
	return p, nil
}

// foldLedgers replays every run's ledger spans through the fleet span
// model, reconciles them with the run's report, and takes the latency
// of each cell and run from its due instant.
func (p *fleetPass) foldLedgers(dir string) error {
	for i, rep := range p.reports {
		if rep == nil {
			continue
		}
		_, recs, err := scenario.LoadLedger(filepath.Join(dir, "run-"+p.ids[i]+".jsonl"))
		if err != nil {
			return err
		}
		b := obs.NewFleetBuilder()
		for _, r := range recs {
			if r.T != scenario.RecSpan {
				continue
			}
			if err := b.Observe(obs.SpanEvent{TMs: r.TMs, Event: r.Event, Key: r.Key, Worker: r.Worker,
				Attempt: r.Attempt, Outcome: r.Outcome, ExecMs: r.ExecMs, Cells: r.Cells}); err != nil {
				return fmt.Errorf("run %s: %w", p.ids[i], err)
			}
		}
		ft := b.Fleet()
		outcomes := make([]obs.CellOutcome, len(rep.Cells))
		for k, c := range rep.Cells {
			outcomes[k] = obs.CellOutcome{Key: cellKey(c), Outcome: c.Outcome}
		}
		if err := obs.ReconcileFleet(ft, outcomes); err != nil {
			return fmt.Errorf("run %s: %w", p.ids[i], err)
		}
		var last int64
		for _, key := range ft.Keys {
			sp := ft.Spans[key]
			p.cellMs = append(p.cellMs, sinceDueMs(p.due[i], sp.DoneMs))
			last = max(last, sp.DoneMs)
			for _, a := range sp.Attempts {
				p.busyMs += a.EndMs - a.GrantMs
				p.queuedMs = append(p.queuedMs, float64(a.QueuedMs))
				p.execMs = append(p.execMs, float64(a.ExecMs))
				p.submitMs = append(p.submitMs, float64(a.SubmitMs))
			}
		}
		p.runMs = append(p.runMs, sinceDueMs(p.due[i], last))
		p.lastDoneMs = max(p.lastDoneMs, last)
	}
	return nil
}

// fleetPasses is how many fresh fleets a run takes through the open
// loop in turn, each for an equal share of the time on the same seeds.
// User CPU per cell is the best pass's: the host's other load only ever
// adds to it. The other figures pool every pass.
const fleetPasses = 4

// runFleet measures fleet-open: untraced open-loop passes, then, with
// trace, one more pass on the same seeds with the handler timed and the
// cache counted.
func runFleet(cfg runConfig, chk *Check, out Metrics, refOut *RefWorkload) error {
	runs := max(1, cfg.seconds*fleetRate/fleetPasses)
	var sets []cellSet
	var busy0 int64
	var best, pool unitFigures
	var cellMs, runMs, lateMs []float64
	for i := 0; i < fleetPasses; i++ {
		p, err := runFleetPass(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("fleet-%d", i)), runs, nil, nil, nil)
		if err != nil {
			return err
		}
		f := unitFigures{cells: p.cells, rounds: p.rounds, wall: p.wall(), user: p.user, cpu: p.cpu}
		if i == 0 {
			sets = checkFleet(p, "pass 0", chk, cfg.ref, refOut, nil)
			busy0, best = p.busyMs, f
		} else {
			checkFleet(p, fmt.Sprintf("pass %d", i), chk, nil, nil, sets)
			best = best.best(f)
		}
		pool = pool.plus(f)
		cellMs = append(cellMs, p.cellMs...)
		runMs = append(runMs, p.runMs...)
		lateMs = append(lateMs, p.lateMs...)
	}
	rate, roundRate, _, _ := pool.rates()
	_, _, userPerCell, cpuPerCell := best.rates()
	offered := float64(fleetRate * fleetRunCells)
	if rate < 0.9*offered {
		chk.note("the fleet fell behind: %.1f cells/s against %.0f offered", rate, offered)
	}
	if !cfg.trace {
		p50, ok := percentile(cellMs, 0.5)
		if !ok {
			return fmt.Errorf("only %d cell latencies: too few for a median", len(cellMs))
		}
		out.Set("cells_per_s", "1/s", rate)
		out.Set("sim_rounds_per_s", "1/s", roundRate)
		out.Set("user_cpu_ms_per_cell", "ms", userPerCell)
		out.Set("cell_latency_p50_ms", "ms", p50)
		out.Set("peak_rss_mb", "MB", peakRSSMB())
		cfg.table.add("cpu_ms_per_cell", "ms", cpuPerCell)
		cfg.table.add("offered_cells_per_s", "1/s", offered)
		cfg.table.add("runs", "count", float64(fleetPasses*runs))
		cfg.table.add("cells", "count", float64(pool.cells))
		cfg.table.pct("cell_latency_p95_ms", "ms", cellMs, 0.95)
		cfg.table.pct("run_latency_p50_ms", "ms", runMs, 0.5)
		cfg.table.pct("gen_late_p95_ms", "ms", lateMs, 0.95)
		return nil
	}

	timer := newHTTPTimer()
	reg := obs.NewRegistry()
	hits := reg.Counter("perfbench_cache_hits_total", "cache reads that hit")
	misses := reg.Counter("perfbench_cache_misses_total", "cache reads that missed")
	tp, err := runFleetPass(cfg, filepath.Join(cfg.workDir, "fleet-traced"), runs, timer, hits, misses)
	if err != nil {
		chk.problem("traced pass: %v", err)
		return nil
	}
	checkFleet(tp, "traced pass", chk, nil, nil, sets)
	setPct(out, chk, "scenariod.queued_ms_p50", tp.queuedMs, 0.5)
	setPct(out, chk, "scenariod.executing_ms_p50", tp.execMs, 0.5)
	setPct(out, chk, "scenariod.submitting_ms_p50", tp.submitMs, 0.5)
	timer.mu.Lock()
	setPct(out, chk, "scenariod.lease_ms_p50", timer.ms["lease"], 0.5)
	setPct(out, chk, "scenariod.result_ms_p50", timer.ms["result"], 0.5)
	setPct(out, chk, "scenariod.submit_ms_p50", timer.ms["submit"], 0.5)
	out.Set("scenariod.lease_hit_ratio", "ratio", ratio(float64(timer.leaseHits), float64(timer.leases)))
	out.Set("scenariod.requests_per_cell", "count", ratio(float64(timer.requests), float64(tp.cells)))
	timer.mu.Unlock()
	out.Set("scenariod.cache_hit_ratio", "ratio", ratio(float64(hits.Value()), float64(hits.Value()+misses.Value())))
	setPct(out, chk, "fleet.cell_latency_p95_ms", cellMs, 0.95)
	setPct(out, chk, "fleet.run_latency_p50_ms", runMs, 0.5)
	setPct(out, chk, "loadgen.late_p95_ms", lateMs, 0.95)
	out.Set("trace.overhead_ratio", "ratio", ratio(float64(tp.busyMs), float64(busy0)))
	return nil
}

// setPct records a per-layer percentile, or notes that it was refused.
func setPct(out Metrics, chk *Check, name string, samples []float64, q float64) {
	v, ok := percentile(samples, q)
	if !ok {
		chk.note("%s: %d samples are too few; reported as 0", name, len(samples))
	}
	out.Set(name, "ms", v)
}

// checkFleet classifies every run's cells and checks that a repeated
// seed (served partly from the cache) reproduces its first run exactly.
// With ref, it compares the leading runs with the reference; with
// first, each run with the same run of the first pass. Every run must
// return fleetRunCells cells. It returns each run's checked cell set.
func checkFleet(p *fleetPass, pass string, chk *Check, ref, refOut *RefWorkload, first []cellSet) []cellSet {
	sets := make([]cellSet, len(p.reports))
	bySeed := map[int64]cellSet{}
	lead := cellSet{}
	for i, rep := range p.reports {
		if rep == nil {
			chk.Attempted += fleetRunCells
			chk.Failed += fleetRunCells
			chk.problem("%s: run %d was refused", pass, i)
			continue
		}
		what := fmt.Sprintf("%s: run %d", pass, i)
		chk.cells(rep.Cells, what)
		chk.cellCount(len(rep.Cells), fleetRunCells, what)
		sets[i] = cellSet{}
		sets[i].add(rep.Cells)
		if prev, ok := bySeed[p.seeds[i]]; ok {
			chk.compare(sets[i], prev, what, fmt.Sprintf("the first run of seed %d", p.seeds[i]))
		} else {
			bySeed[p.seeds[i]] = sets[i]
		}
		if first != nil && first[i] != nil {
			chk.compare(sets[i], first[i], what, "the same run of the first pass")
		}
		if i < fleetRefRuns {
			lead.add(rep.Cells)
			if ref != nil {
				pinned := map[string]string{}
				for k := range sets[i] {
					if h, ok := ref.Cells[k]; ok {
						pinned[k] = h
					}
				}
				chk.compare(sets[i], pinned, what, "the reference")
			}
		}
	}
	if ref != nil {
		// Each leading run was compared above; left are the pinned cells
		// that no leading run returned, and the digest.
		unseen := map[string]string{}
		for k, h := range ref.Cells {
			if _, ok := lead[k]; !ok {
				unseen[k] = h
			}
		}
		chk.compare(cellSet{}, unseen, pass+": leading runs", "the reference")
		chk.digest(lead, ref.Digest, pass+": leading runs")
	}
	if refOut != nil {
		refOut.Cells, refOut.Digest = lead, lead.digest()
	}
	return sets
}
