package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// cellKey identifies a cell across runs: full coordinates plus the
// derived seed (which already folds in the base seed).
func cellKey(c Cell) string {
	return fmt.Sprintf("%s|%d|%s|%s|%d", c.Family.Name, c.N, c.Engine.Name, c.Protocol.Name, c.Seed)
}

// Key is the cross-run identity of a cell: it is the ledger key and the
// scenariod job key.
func (c Cell) Key() string { return cellKey(c) }

// CellFromNames reconstructs a matrix cell from its serialized
// coordinates — the inverse of the decomposition the scenariod server
// performs when it turns a submitted matrix into durable jobs. The
// names resolve against the standing family/engine/protocol sets, so a
// worker process rebuilds exactly the cell the server expanded.
func CellFromNames(family string, n int, engine, protocol string, seed int64) (Cell, error) {
	f, ok := FamilyByName(family)
	if !ok {
		return Cell{}, fmt.Errorf("scenario: unknown family %q", family)
	}
	e, ok := EngineByName(engine)
	if !ok {
		return Cell{}, fmt.Errorf("scenario: unknown engine config %q", engine)
	}
	p, ok := ProtocolByName(protocol)
	if !ok {
		return Cell{}, fmt.Errorf("scenario: unknown protocol %q", protocol)
	}
	return Cell{Family: f, N: n, Engine: e, Protocol: p, Seed: seed}, nil
}

// CachedLeg is a cacheable oracle-leg execution: everything classify
// needs from the oracle side of a cell. The oracle leg is a pure
// function of (family, n, seed, protocol, bandwidth, faulty) — it always
// runs the sequential scalar engine — which is what makes it
// content-addressable across engine configurations and across runs.
type CachedLeg struct {
	Output string     `json:"output"`
	Stats  core.Stats `json:"stats"`
	Edges  int        `json:"edges"`
}

// LegCache is the oracle-leg cache hook of RunCell. Implementations
// must verify integrity on read (a corrupted entry degrades to a miss
// and a recompute — never to a wrong oracle); scenariod's
// content-addressed cache is the standing implementation.
type LegCache interface {
	GetOracle(c Cell, faulty bool) (CachedLeg, bool)
	PutOracle(c Cell, faulty bool, leg CachedLeg)
}

// CellOptions carries the per-cell slice of RunOptions: RunMatrixOpts
// builds one for all its cells, the scenariod worker one per leased
// cell. The zero value runs both legs guarded, without deadline,
// retries, cache or tracing.
type CellOptions struct {
	Faults          fault.Spec
	Timeout         time.Duration
	Retries         int
	RetryBackoff    time.Duration
	RetryBackoffCap time.Duration
	Sleep           func(time.Duration)
	Cache           LegCache
	// Sink, when non-nil, builds the trace sink of every engine run of
	// the engine leg (the oracle leg stays untraced) — typically an
	// obs.DirSink's Factory, whose owner closes it and checks the error.
	Sink func(seed int64) core.Sink
}

// RunCell executes one cell's differential pair — oracle leg on the
// sequential scalar engine, engine leg under the cell's configuration
// with the adversary and sink in its core.Env only, panic/timeout
// guards, quarantine retries with backoff — and classifies the outcome.
// With a LegCache, the oracle leg is served from the cache when possible
// (its wall time is then recorded as 0) and stored after a successful
// miss. Because every leg is deterministic in the cell coordinates and
// carries its own Env, the resulting CellResult is identical to the one
// a full matrix run produces, timings aside, whatever else runs in the
// process — the property the scenariod chaos tests lean on.
func RunCell(c Cell, opt CellOptions) CellResult {
	faulty := opt.Faults.Active()
	var o legOut
	cached := false
	if opt.Cache != nil {
		if leg, ok := opt.Cache.GetOracle(c, faulty); ok {
			o = legOut{res: &LegResult{Output: leg.Output, Stats: leg.Stats}, edges: leg.Edges, attempts: 1}
			cached = true
		}
	}
	if !cached {
		o = runLegRetries(c, true, opt)
		if opt.Cache != nil && o.err == nil && o.res != nil {
			opt.Cache.PutOracle(c, faulty, CachedLeg{Output: o.res.Output, Stats: o.res.Stats, Edges: o.edges})
		}
	}
	e := runLegRetries(c, false, opt)
	return classify(c, o, e, faulty)
}

// runLegRetries runs one leg and, on infra failures (panic, timeout),
// retries it up to opt.Retries times with the capped-backoff pause.
// Protocol errors never retry: they are deterministic by the replay
// guarantee and belong to the outcome classification, not the retry
// loop.
func runLegRetries(c Cell, oracle bool, opt CellOptions) legOut {
	out := runLegGuarded(c, oracle, opt)
	sleep := opt.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 1; attempt <= opt.Retries && out.infra; attempt++ {
		if d := Backoff(opt.RetryBackoff, opt.RetryBackoffCap, attempt, c.Seed, cellKey(c)); d > 0 {
			sleep(d)
		}
		r := runLegGuarded(c, oracle, opt)
		r.attempts = attempt + 1
		out = r
	}
	return out
}
