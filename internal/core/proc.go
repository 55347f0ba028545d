package core

import (
	"fmt"
	"math/rand"
	"runtime/debug"

	"repro/internal/bits"
)

// Proc is a node's handle in the goroutine-based programming surface: each
// node runs as its own goroutine and the synchronous rounds of the model
// are rendered as blocking barrier calls on channels. A body stages
// messages with Send/Broadcast and then calls Next, which ends the current
// round and returns the messages received at the start of the following
// round.
//
// Under the parallel engine (Config.Parallelism != 1) the bodies of
// distinct nodes may run truly concurrently within a round, so any state
// a body shares with other bodies outside the model's messages must be
// read-only or synchronized (see routing.Router for the canonical
// pattern). Messages are stage-once: Send and Broadcast seal the buffer,
// so a body must not write it afterwards (a write panics and becomes the
// node's error). Received buffers are sealed and shared with other
// recipients; treat them as read-only.
type Proc struct {
	ctx     *Ctx
	inCh    chan []*bits.Buffer
	barrier chan struct{}
	done    chan struct{}
	retErr  error
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
// because a Proc body runs only inside its step window, bounded by the
// round barrier.
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

// Next commits the staged messages, waits for the round barrier, and
// returns the inbox of the next round (indexed by sender; nil entries mean
// no message). The first round of a body begins immediately on start; the
// first Next call therefore returns the messages sent by other nodes in
// round 0.
func (p *Proc) Next() []*bits.Buffer {
	p.barrier <- struct{}{}
	return <-p.inCh
}

// procNode adapts a Proc-style body to the engine's Node interface.
type procNode struct {
	body    func(*Proc) error
	proc    *Proc
	started bool
}

func (pn *procNode) Step(ctx *Ctx, in []*bits.Buffer) (bool, error) {
	if !pn.started {
		pn.started = true
		pn.proc = &Proc{
			ctx:     ctx,
			inCh:    make(chan []*bits.Buffer),
			barrier: make(chan struct{}),
			done:    make(chan struct{}),
		}
		go func() {
			defer func() {
				// A body panic (e.g. an index derived from corrupted wire
				// data) must surface as this node's error — a detected
				// failure the harness can classify — never kill the
				// process from an engine goroutine.
				if r := recover(); r != nil {
					pn.proc.retErr = fmt.Errorf("core: node body panic: %v\n%s", r, debug.Stack())
				}
				close(pn.proc.done)
			}()
			pn.proc.retErr = pn.body(pn.proc)
		}()
	} else {
		// Deliver this round's inbox to the body blocked inside Next.
		pn.proc.inCh <- in
	}
	select {
	case <-pn.proc.barrier:
		return false, nil
	case <-pn.proc.done:
		return true, pn.proc.retErr
	}
}

// RunProcs runs one body per node, each in its own goroutine, under the
// given configuration. All bodies share the body function; they branch on
// p.ID() (the common SPMD style of congested clique algorithms).
func RunProcs(cfg Config, body func(*Proc) error) (*Result, error) {
	nodes := make([]Node, cfg.N)
	for i := range nodes {
		nodes[i] = &procNode{body: body}
	}
	return Run(cfg, nodes)
}

// RunProcsEach runs a distinct body per node.
func RunProcsEach(cfg Config, bodies []func(*Proc) error) (*Result, error) {
	nodes := make([]Node, len(bodies))
	for i, b := range bodies {
		nodes[i] = &procNode{body: b}
	}
	return Run(cfg, nodes)
}
