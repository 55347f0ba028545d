package bits

// Arena is a single-owner free list of message buffers, the allocation
// substrate of the round engine's per-node scratch reuse (DESIGN.md §13).
// A buffer drawn from an arena is tagged with it for life. Like every
// buffer it follows the stage-once contract: the producer fills it, stages
// it (Freeze seals it in place) and never writes it again. Once the engine
// knows every recipient is done with the message it calls Recycle, which
// un-seals the buffer and returns struct and storage to the arena, so
// steady-state message traffic allocates nothing.
//
// An Arena is NOT safe for concurrent use. The engine gives each node its
// own arena: Get runs inside the node's (possibly concurrent) Step, while
// Recycle runs in the sequential delivery pass — phases that never
// overlap and are ordered by the worker pool's synchronization.
type Arena struct {
	free []*Buffer
}

// Get returns an empty writable buffer owned by the arena with capacity
// for sizeHint bits, reusing recycled storage when any is available.
func (a *Arena) Get(sizeHint int) *Buffer {
	if n := len(a.free); n > 0 {
		b := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		if cap(b.data) < (sizeHint+7)/8 {
			b.data = make([]byte, 0, (sizeHint+7)/8)
		}
		return b
	}
	b := New(sizeHint)
	b.arena = a
	return b
}

// MarkReclaim marks an arena buffer as queued for recycling and reports
// whether the caller now owns that duty. It returns false for non-arena
// buffers and for buffers already marked — the engine's delivery pass
// uses it to build a duplicate-free reclaim list even though a broadcast
// stages the same buffer once per recipient. Not safe for concurrent use;
// the engine calls it only from the sequential delivery pass.
func (b *Buffer) MarkReclaim() bool {
	if b.arena == nil || b.queued {
		return false
	}
	b.queued = true
	return true
}

// Recycle un-seals an arena buffer and returns it to its arena for
// reuse. The caller promises that no recipient will touch the buffer
// again — the round engine calls it one full round after delivery, when
// every inbox slot holding the message has been cleared. Recycle of a
// non-arena buffer is a no-op.
func (b *Buffer) Recycle() {
	if b.arena == nil {
		return
	}
	b.queued = false
	b.frozen = false
	b.data = b.data[:0]
	b.n = 0
	b.arena.free = append(b.arena.free, b)
}
