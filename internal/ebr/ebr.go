// Package ebr implements epoch-based memory reclamation for the lock-free
// data structures in this repository.
//
// The paper's conclusion leaves memory management as future work and
// points at Valois's reference counting; on a garbage-collected runtime
// nothing needs reclaiming for safety, but an explicit scheme is still
// what a non-GC port (or an object-pooling deployment) requires, so this
// package provides the standard three-epoch scheme (Fraser 2003, the same
// thesis the paper cites for the competing skip list):
//
//   - every operation runs inside a critical section (Enter/Exit on a
//     per-goroutine Handle);
//   - a node removed from the structure is Retired, not freed;
//   - the global epoch advances only when every active handle has
//     observed the current epoch, so once it has advanced twice, no
//     handle can still hold a reference from the retirement epoch and the
//     retired batch is freed (here: handed to a recycler such as a
//     sync.Pool).
//
// The FR list's three-step deletion makes the integration exact: the
// single successful physical-deletion C&S is the unique point at which a
// node leaves the structure, so core.List's retire hook fires exactly
// once per node.
package ebr

import (
	"sync"
	"sync/atomic"

	"repro/internal/instrument"
)

// epochSlots is the classic three-slot scheme: retirees from epoch e are
// freed once the global epoch reaches e+2.
const epochSlots = 3

// advanceEvery bounds retire-list growth: every Nth retirement attempts
// to advance the global epoch.
const advanceEvery = 64

// Domain coordinates epochs across a set of handles. Create one Domain
// per data structure (or share one across structures whose operations are
// mutually visible). The zero value is not usable; call NewDomain.
type Domain struct {
	epoch atomic.Uint64

	mu      sync.Mutex
	handles []*Handle

	// pins are the striped shareable critical sections used by the node-
	// recycling layer (recycle.go); sized and indexed like ShardedInt64
	// shards. Fixed at construction, so reads need no lock.
	pins    []Pin
	pinMask uint32

	freed    atomic.Uint64
	retired  atomic.Uint64
	dropped  atomic.Uint64
	recycled atomic.Uint64

	// counters receives the batch events exactly; see SetCounters.
	counters Counters
}

// Counters receives a domain's batch events (instrument.Counter.Batch):
// epoch advances and recycled nodes. telemetry.Recorder implements it.
type Counters interface {
	AddCounter(c instrument.Counter, n uint64)
}

// SetCounters makes the domain report every epoch advance and every
// recycled node to c as it happens, in addition to the OpStats of the
// operation that triggered it; nil stops reporting. Set it before the
// domain is shared (the field is read without synchronization).
func (d *Domain) SetCounters(c Counters) { d.counters = c }

// NewDomain returns an empty domain at epoch 0.
func NewDomain() *Domain {
	d := &Domain{}
	n := stripeCount()
	d.pins = make([]Pin, n)
	d.pinMask = uint32(n - 1)
	for i := range d.pins {
		d.pins[i].d = d
		for j := range d.pins[i].slots {
			d.pins[i].slots[j].epoch = ^uint64(0)
		}
	}
	return d
}

// Epoch returns the current global epoch (diagnostic).
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// Freed returns the number of retirees whose free callback has run.
func (d *Domain) Freed() uint64 { return d.freed.Load() }

// Retired returns the number of Retire calls so far.
func (d *Domain) Retired() uint64 { return d.retired.Load() }

// Register creates a handle. Each goroutine that performs operations must
// use its own handle; handles must not be shared.
func (d *Domain) Register() *Handle {
	h := &Handle{d: d}
	for i := range h.slots {
		h.slots[i].epoch = ^uint64(0)
	}
	d.mu.Lock()
	d.handles = append(d.handles, h)
	d.mu.Unlock()
	return h
}

// tryAdvance bumps the global epoch if every active handle and every
// occupied pin stripe has observed it. Returns the (possibly new) epoch.
// Only atomics are read from the pin stripes (never pin.lock), so there
// is no lock ordering between d.mu and the stripe try-locks.
func (d *Domain) tryAdvance(st *instrument.OpStats) uint64 {
	e := d.epoch.Load()
	for i := range d.pins {
		p := &d.pins[i]
		if p.count.Load() > 0 && p.local.Load() != e {
			return e
		}
	}
	d.mu.Lock()
	for _, h := range d.handles {
		if h.active.Load() && h.local.Load() != e {
			d.mu.Unlock()
			return e
		}
	}
	d.mu.Unlock()
	if d.epoch.CompareAndSwap(e, e+1) {
		st.IncEpochAdvance()
		if d.counters != nil {
			d.counters.AddCounter(instrument.CtrEpochAdvances, 1)
		}
	}
	return d.epoch.Load()
}

// retireSlot is one epoch's batch of pending frees on one handle.
type retireSlot struct {
	epoch uint64
	frees []func()
}

// Handle is one participant's view of the domain. A handle is not safe
// for concurrent use; it is owned by one goroutine.
type Handle struct {
	d      *Domain
	active atomic.Bool
	local  atomic.Uint64

	slots  [epochSlots]retireSlot
	nsince int
}

// Enter begins a critical section: until Exit, every pointer read from
// the protected structure remains valid (its memory will not be recycled).
// Enter/Exit pairs must not nest.
func (h *Handle) Enter() {
	h.active.Store(true)
	// Publish the epoch we are pinning. A single re-read closes the
	// window where the epoch advanced between load and store.
	for {
		e := h.d.epoch.Load()
		h.local.Store(e)
		if h.d.epoch.Load() == e {
			break
		}
	}
	h.drain()
}

// Exit ends the critical section.
func (h *Handle) Exit() {
	h.active.Store(false)
}

// Retire schedules free to run once no concurrent critical section can
// still hold a reference acquired before this call. Must be called inside
// an Enter/Exit section.
func (h *Handle) Retire(free func()) {
	h.d.retired.Add(1)
	e := h.d.epoch.Load()
	slot := &h.slots[e%epochSlots]
	if slot.epoch != e {
		// The slot holds a batch from e-3 (or is empty); it is long past
		// its grace period.
		h.freeSlot(slot)
		slot.epoch = e
	}
	slot.frees = append(slot.frees, free)
	h.nsince++
	if h.nsince >= advanceEvery {
		h.nsince = 0
		h.d.tryAdvance(nil)
		h.drain()
	}
}

// drain frees every batch whose grace period has elapsed: batches retired
// in epochs <= current-2.
func (h *Handle) drain() {
	cur := h.d.epoch.Load()
	for i := range h.slots {
		s := &h.slots[i]
		if s.epoch != ^uint64(0) && s.epoch+2 <= cur && len(s.frees) > 0 {
			h.freeSlot(s)
		}
	}
}

// freeSlot runs and clears a batch.
func (h *Handle) freeSlot(s *retireSlot) {
	for _, f := range s.frees {
		f()
	}
	h.d.freed.Add(uint64(len(s.frees)))
	s.frees = s.frees[:0]
}

// Flush force-frees every pending batch on this handle. Only safe in a
// quiescent state (no concurrent critical sections); used at shutdown and
// in tests.
func (h *Handle) Flush() {
	for i := range h.slots {
		if h.slots[i].epoch != ^uint64(0) {
			h.freeSlot(&h.slots[i])
		}
	}
}
