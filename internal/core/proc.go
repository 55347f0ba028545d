package core

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"

	"repro/internal/bits"
)

// Proc is a node's handle in the straight-line programming surface: each
// node's body runs as a coroutine (iter.Pull) that the engine resumes
// once per round, and the synchronous rounds of the model are rendered as
// blocking Next calls. A body stages messages with Send/Broadcast and
// then calls Next, which ends the current round and returns the messages
// received at the start of the following round.
//
// Under the parallel engine (Config.Parallelism != 1) the bodies of
// distinct nodes may run truly concurrently within a round, so any state
// a body shares with other bodies outside the model's messages must be
// read-only or synchronized (see routing.Router for the canonical
// pattern). Messages are stage-once: Send and Broadcast seal the buffer,
// so a body must not write it afterwards (a write panics and becomes the
// node's error). Received buffers are sealed and shared with other
// recipients; treat them as read-only.
//
// A body ends by returning (nil or an error); a panic becomes the node's
// error. It must not call runtime.Goexit (so no t.FailNow or t.Fatal
// inside a body): the coroutine would propagate it to the goroutine
// stepping the node. When a run ends before a body returns (the run
// failed, or the node crashed), the body's pending Next panics with a
// private sentinel once the run is over; the body unwinds (deferred
// calls run) and must not recover that panic to keep going.
type Proc struct {
	ctx   *Ctx
	yield func(struct{}) bool
	in    []*bits.Buffer
}

// ID returns the node identifier.
func (p *Proc) ID() int { return p.ctx.ID() }

// N returns the number of players.
func (p *Proc) N() int { return p.ctx.N() }

// Bandwidth returns b.
func (p *Proc) Bandwidth() int { return p.ctx.Bandwidth() }

// Model returns the communication model.
func (p *Proc) Model() Model { return p.ctx.Model() }

// Rand returns the node's private deterministic randomness.
func (p *Proc) Rand() *rand.Rand { return p.ctx.Rand() }

// Round returns the current round number.
func (p *Proc) Round() int { return p.ctx.Round() }

// SetOutput records the node's output value.
func (p *Proc) SetOutput(v interface{}) { p.ctx.SetOutput(v) }

// Msg returns an empty message buffer from the node's private arena; see
// Ctx.Msg for the stage-once contract and recycling lifecycle. Safe here
// because a Proc body runs only while the engine steps its node.
func (p *Proc) Msg() *bits.Buffer { return p.ctx.Msg() }

// Annotate stamps a phase marker into the run's trace; see Ctx.Annotate.
func (p *Proc) Annotate(name string) { p.ctx.Annotate(name) }

// Annotatef stamps a formatted phase marker; see Ctx.Annotatef.
func (p *Proc) Annotatef(format string, args ...interface{}) { p.ctx.Annotatef(format, args...) }

// Traced reports whether the run has a trace sink attached.
func (p *Proc) Traced() bool { return p.ctx.Traced() }

// Send stages a unicast message for the current round.
func (p *Proc) Send(dst int, msg *bits.Buffer) error { return p.ctx.Send(dst, msg) }

// Broadcast stages a broadcast message for the current round.
func (p *Proc) Broadcast(msg *bits.Buffer) error { return p.ctx.Broadcast(msg) }

// procStopped is the panic value that unwinds a body whose run ended
// before it returned.
type procStopped struct{}

// Next commits the staged messages, yields to the engine until the round
// barrier, and returns the inbox of the next round (indexed by sender;
// nil entries mean no message). The first round of a body begins
// immediately on start; the first Next call therefore returns the
// messages sent by other nodes in round 0.
func (p *Proc) Next() []*bits.Buffer {
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
	return p.in
}

// procNode adapts a Proc-style body to the engine's Node interface: Step
// resumes the body's coroutine, which runs until its next Next (the
// round is over) or until it returns (the node halts).
type procNode struct {
	body func(*Proc) error
	proc Proc
	next func() (struct{}, bool)
	stop func()
	err  error
}

func (pn *procNode) Step(ctx *Ctx, in []*bits.Buffer) (bool, error) {
	if pn.next == nil {
		pn.proc.ctx = ctx
		pn.next, pn.stop = iter.Pull(pn.run)
	}
	pn.proc.in = in
	if _, more := pn.next(); more {
		return false, nil
	}
	return true, pn.err
}

// run is the coroutine: the body, with its error and any panic recorded
// as the node's error.
func (pn *procNode) run(yield func(struct{}) bool) {
	defer func() {
		// A body panic (e.g. an index derived from corrupted wire data)
		// must surface as this node's error — a detected failure the
		// harness can classify — never kill the process from an engine
		// worker. The stop sentinel is not an error: the run is over.
		if r := recover(); r != nil && r != (procStopped{}) {
			pn.err = fmt.Errorf("core: node body panic: %v\n%s", r, debug.Stack())
		}
	}()
	pn.proc.yield = yield
	pn.err = pn.body(&pn.proc)
}

// RunProcs runs one body per node under the given configuration. All
// bodies share the body function; they branch on p.ID() (the common SPMD
// style of congested clique algorithms).
func RunProcs(cfg Config, body func(*Proc) error) (*Result, error) {
	bodies := make([]func(*Proc) error, cfg.N)
	for i := range bodies {
		bodies[i] = body
	}
	return RunProcsEach(cfg, bodies)
}

// RunProcsEach runs a distinct body per node. Bodies still suspended in
// Next when the run ends — it failed or hit a limit, or their node
// crashed — are unwound before it returns.
func RunProcsEach(cfg Config, bodies []func(*Proc) error) (*Result, error) {
	pns := make([]procNode, len(bodies))
	nodes := make([]Node, len(bodies))
	for i, b := range bodies {
		pns[i].body = b
		nodes[i] = &pns[i]
	}
	defer func() {
		for i := range pns {
			if pns[i].stop != nil {
				pns[i].stop()
			}
		}
	}()
	return Run(cfg, nodes)
}
