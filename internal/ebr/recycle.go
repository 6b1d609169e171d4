package ebr

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/instrument"
)

// This file is the node-recycling layer on top of the package's epoch
// machinery: Pin/Unpin critical sections cheap enough for every operation
// of a structure, typed-free retire lists (no closure per retiree), and
// per-P padded free lists (Pool) that node constructors consult before
// calling the allocator. Together they make insert-after-delete traffic
// allocation-free at steady state:
//
//	unlink C&S wins ──> Domain.RetireNode (epoch-stamped slot on a per-P Pin)
//	epoch advances twice ──> drain pushes the batch onto its Pool
//	next Insert ──> Pool.Get pops a node instead of new(...)
//
// Everything here is non-blocking: the per-P slots and pool shards are
// guarded by try-locks, and any path that cannot acquire one immediately
// falls back to the garbage collector (a retiree is simply not recycled;
// a constructor simply allocates). Dropping to the GC is always safe - it
// restores exactly the pre-recycling behavior for that one node.

// retireSlotCap bounds one epoch slot's batch on one Pin. When an epoch is
// stalled (a pinned-but-idle critical section never observes the current
// epoch), retire lists cannot drain; past the cap, retirements are
// abandoned to the GC and counted as ebr_stalled_epochs, so a stalled
// reader bounds memory instead of leaking it. 3 slots x #pins x the cap is
// the domain-wide retained ceiling (TestEpochStallBound pins it).
const retireSlotCap = 1024

// retiree is one retired node together with the free list that should
// receive it after the grace period. Storing the node as an `any` holding
// a pointer does not allocate.
type retiree struct {
	pool *Pool
	n    any
}

// nodeSlot is one epoch's batch of retirees on one Pin.
type nodeSlot struct {
	epoch uint64
	nodes []retiree
}

// Pin is one stripe of a domain's critical-section state. Unlike a Handle,
// a Pin is shareable: goroutines that hash to the same stripe nest on its
// count, and the stripe's observed epoch is published only on the 0->1
// transition - the stripe then blocks epoch advancement until the count
// returns to 0, which is conservative (an advance is delayed) but never
// unsafe. Obtain one from Domain.Pin; release with Unpin.
type Pin struct {
	d     *Domain
	count atomic.Int64
	local atomic.Uint64

	// lock guards slots/nsince/stock below (a try-lock: contenders fall
	// back to the GC rather than wait).
	lock   atomic.Bool
	slots  [epochSlots]nodeSlot
	nsince int

	_ [cacheLine - 8]byte
}

// cacheLine pads the striped structures; 64 bytes covers every amd64/arm64
// part this will run on.
const cacheLine = 64

// stripeCount sizes a striped array to twice GOMAXPROCS, rounded up to a
// power of two and capped at 256 - the ShardedInt64 policy.
func stripeCount() int {
	want := runtime.GOMAXPROCS(0) * 2
	n := 1
	for n < want && n < 256 {
		n <<= 1
	}
	return n
}

// stripeIndex returns a goroutine-affine hash (the ShardedInt64 trick):
// hash the address of a stack variable - distinct goroutines occupy
// distinct stacks. The address is only hashed, never dereferenced.
func stripeIndex() uint32 {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	return uint32((p * 0x9E3779B97F4A7C15) >> 33)
}

// Pin begins a critical section on a goroutine-affine stripe: until the
// matching Unpin, no node retired to this domain after the pin can have
// its memory recycled. Pins on the same stripe nest (the count); the
// epoch is published only by the pinner that takes the stripe from idle,
// with the same re-read loop as Handle.Enter.
func (d *Domain) Pin() *Pin {
	p := &d.pins[stripeIndex()&d.pinMask]
	if p.count.Add(1) == 1 {
		for {
			e := d.epoch.Load()
			p.local.Store(e)
			if d.epoch.Load() == e {
				break
			}
		}
	}
	return p
}

// Unpin ends the critical section. Nil-tolerant so structures without a
// reclamation domain can unconditionally `defer pin.Unpin()`.
func (p *Pin) Unpin() {
	if p != nil {
		p.count.Add(-1)
	}
}

// Domain returns the domain this pin stripes, for the Proc fast path's
// token check (a caller-held pin is only good for its own domain).
func (p *Pin) Domain() *Domain { return p.d }

// RetireNode schedules node n for recycling into pool once the grace
// period elapses: it is stamped with the current epoch on a goroutine-
// affine stripe and pushed to pool by a later drain, after the global
// epoch has advanced twice past the stamp. Must be called while the
// calling goroutine holds a Pin on this domain (the unlink that made n
// unreachable must be inside the critical section). Non-blocking: on
// stripe contention or a stalled epoch the node is left to the GC.
func (d *Domain) RetireNode(pool *Pool, n any, st *instrument.OpStats) {
	d.retired.Add(1)
	p := &d.pins[stripeIndex()&d.pinMask]
	if !p.lock.CompareAndSwap(false, true) {
		d.dropped.Add(1)
		return // contended stripe: leave n to the GC
	}
	e := d.epoch.Load()
	s := &p.slots[e%epochSlots]
	if s.epoch != e {
		// The slot holds a batch from e-3 or earlier (or is empty): its
		// grace period is long past.
		p.flushSlot(s, st)
		s.epoch = e
	}
	if len(s.nodes) >= retireSlotCap {
		// Epoch stalled: the batch cannot drain and has hit its cap.
		// Abandon this retiree to the GC so memory stays bounded.
		st.IncStalled()
		d.dropped.Add(1)
	} else {
		s.nodes = append(s.nodes, retiree{pool: pool, n: n})
	}
	p.nsince++
	if p.nsince >= advanceEvery {
		p.nsince = 0
		cur := d.tryAdvance(st)
		p.drainLocked(cur, st)
	}
	p.lock.Store(false)
}

// drainLocked pushes every batch whose grace period has elapsed onto its
// pool. Caller holds p.lock.
func (p *Pin) drainLocked(cur uint64, st *instrument.OpStats) {
	for i := range p.slots {
		s := &p.slots[i]
		if s.epoch != ^uint64(0) && s.epoch+2 <= cur && len(s.nodes) > 0 {
			p.flushSlot(s, st)
		}
	}
}

// flushSlot moves a quiesced batch to its free lists and resets the slot,
// keeping the backing array so steady-state retirement never reallocates.
func (p *Pin) flushSlot(s *nodeSlot, st *instrument.OpStats) {
	recycled := uint64(0)
	for i := range s.nodes {
		r := &s.nodes[i]
		if r.pool.Put(r.n) {
			recycled++
		} else {
			p.d.dropped.Add(1) // pool full: leave to the GC
		}
		*r = retiree{}
	}
	st.IncRecycled(recycled)
	if c := p.d.counters; c != nil {
		c.AddCounter(instrument.CtrNodesRecycled, recycled)
	}
	p.d.freed.Add(uint64(len(s.nodes)))
	p.d.recycled.Add(recycled)
	s.nodes = s.nodes[:0]
}

// Reclaim advances the epoch if possible and drains every stripe's
// quiesced batches. Safe to call at any time (it only frees batches whose
// grace period has already elapsed); tests and shutdown paths use it to
// reach a deterministic state without waiting for retire cadence.
func (d *Domain) Reclaim(st *instrument.OpStats) {
	cur := d.tryAdvance(st)
	for i := range d.pins {
		p := &d.pins[i]
		if !p.lock.CompareAndSwap(false, true) {
			continue
		}
		p.drainLocked(cur, st)
		p.lock.Store(false)
	}
}

// Pending returns the number of retirees currently parked in epoch slots
// awaiting their grace period (diagnostic; scans every stripe).
func (d *Domain) Pending() int {
	total := 0
	for i := range d.pins {
		p := &d.pins[i]
		if !p.lock.CompareAndSwap(false, true) {
			continue
		}
		for j := range p.slots {
			total += len(p.slots[j].nodes)
		}
		p.lock.Store(false)
	}
	return total
}

// Dropped returns the number of retirees abandoned to the garbage
// collector (stalled epochs, stripe contention, or full pools).
func (d *Domain) Dropped() uint64 { return d.dropped.Load() }

// Recycled returns the number of retirees pushed onto free lists.
func (d *Domain) Recycled() uint64 { return d.recycled.Load() }

// poolShard is one per-P stripe of a Pool: a try-locked LIFO of free
// nodes, padded so stripes never share a cache line.
type poolShard struct {
	lock  atomic.Bool
	items []any
	_     [cacheLine - 25]byte
}

// Pool is a striped free list of recycled nodes, the destination side of
// RetireNode. Get and tryPut touch a goroutine-affine stripe first and
// are non-blocking throughout; Get steals from other stripes when the
// affine one is empty (retire and construction sites sit at different
// stack depths, so the same goroutine may hash to different stripes).
type Pool struct {
	shards []poolShard
	mask   uint32
	cap    int
}

// NewPool returns a free list with the given per-stripe capacity (values
// < 1 select a default sized generously above the retire cadence, so a
// single-goroutine churn loop never starves between drains).
func NewPool(perShard int) *Pool {
	if perShard < 1 {
		perShard = 4 * advanceEvery
	}
	n := stripeCount()
	p := &Pool{shards: make([]poolShard, n), mask: uint32(n - 1), cap: perShard}
	for i := range p.shards {
		p.shards[i].items = make([]any, 0, perShard)
	}
	return p
}

// Get pops a free node, or returns nil when none is available (the caller
// then allocates). The affine stripe is tried first, then the others are
// scanned; every probe is a try-lock, so Get never blocks.
func (p *Pool) Get(st *instrument.OpStats) any {
	start := stripeIndex() & p.mask
	for i := uint32(0); i <= p.mask; i++ {
		sh := &p.shards[(start+i)&p.mask]
		// sh.items may only be examined under the try-lock (the length
		// read would otherwise race with a concurrent append).
		if !sh.lock.CompareAndSwap(false, true) {
			continue
		}
		if last := len(sh.items) - 1; last >= 0 {
			n := sh.items[last]
			sh.items[last] = nil
			sh.items = sh.items[:last]
			sh.lock.Store(false)
			st.IncFreelist(true)
			return n
		}
		sh.lock.Store(false)
	}
	st.IncFreelist(false)
	return nil
}

// Put pushes a node onto the affine stripe; false when the stripe is
// contended or full (the node is then left to the GC). Callers other
// than the drain use it for nodes that were never published — those need
// no grace period.
func (p *Pool) Put(n any) bool {
	sh := &p.shards[stripeIndex()&p.mask]
	if !sh.lock.CompareAndSwap(false, true) {
		return false
	}
	ok := len(sh.items) < p.cap
	if ok {
		sh.items = append(sh.items, n)
	}
	sh.lock.Store(false)
	return ok
}

// Free returns the number of nodes currently available (diagnostic).
func (p *Pool) Free() int {
	total := 0
	for i := range p.shards {
		sh := &p.shards[i]
		if !sh.lock.CompareAndSwap(false, true) {
			continue
		}
		total += len(sh.items)
		sh.lock.Store(false)
	}
	return total
}
