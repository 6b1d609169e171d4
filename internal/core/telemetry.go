package core

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// This file is the telemetry seam of the primary structures: every exported
// operation is a thin wrapper that, when a telemetry.Recorder is attached,
// counts the operation and — for the sampled subset — accumulates the
// paper's essential steps in a scratch OpStats and flushes them, with one
// latency and one retry sample, into the recorder's sharded counters.
//
// The disabled path costs exactly one nil check per operation: no
// allocation, no atomic, no clock read. The enabled path keeps operation
// counts exact and samples everything else (period
// telemetry.DefaultSampleEvery, configurable down to 1 = record
// everything):
//
//   - unsampled operations run with the caller's own Proc untouched and
//     pay one atomic load plus one striped atomic add,
//   - sampled operations borrow a pooled scratch Proc and OpStats (see
//     scratch), read the clock twice, and flush a handful of striped
//     atomic adds — never per step, so the algorithms' hot loops are
//     untouched, and nothing is allocated.
//
// A caller-supplied Proc always sees exact stats: unsampled operations
// write straight into it, sampled ones mirror the scratch back.

// SetTelemetry attaches rec to the list; every subsequent operation flushes
// its step counts and latency into it. Attach before the list is shared
// with other goroutines (the field is read without synchronization on
// operation entry). A nil rec detaches. With recycling on, the
// reclamation domain reports its batch events to rec too.
func (l *List[K, V]) SetTelemetry(rec *telemetry.Recorder) {
	l.tel = rec
	l.rec.count(rec)
}

// Telemetry returns the attached recorder, or nil.
func (l *List[K, V]) Telemetry() *telemetry.Recorder { return l.tel }

// SetTelemetry attaches rec to the skip list; see List.SetTelemetry.
func (l *SkipList[K, V]) SetTelemetry(rec *telemetry.Recorder) {
	l.tel = rec
	l.rec.count(rec)
}

// Telemetry returns the attached recorder, or nil.
func (l *SkipList[K, V]) Telemetry() *telemetry.Recorder { return l.tel }

// scratch is the state of one sampled operation: the Proc it runs under
// and the OpStats its steps are counted in. Both live in one pooled
// object, because the hook interface call in the inner operations makes
// escape analysis spill the Proc to the heap; pooled, a sampled operation
// allocates nothing.
type scratch struct {
	pr Proc
	st OpStats
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns scratch whose Proc is a copy of p (hooks, ID, retire
// callback and epoch pin intact) counting into the scratch's own zeroed
// OpStats, so the operation's essential steps are collected locally
// whether or not the caller passed its own Proc.
func getScratch(p *Proc) *scratch {
	sc := scratchPool.Get().(*scratch)
	if p != nil {
		sc.pr = *p
	}
	sc.st = OpStats{}
	sc.pr.Stats = &sc.st
	return sc
}

// finish records one sampled operation, mirrors the locally collected
// steps into the caller's own counters, if it brought any, so an
// instrumented benchmark sees exactly what the live metrics see, and
// returns sc to the pool.
func (sc *scratch) finish(rec *telemetry.Recorder, tok telemetry.OpToken, op telemetry.Op, p *Proc) {
	rec.FinishOp(tok, op, &sc.st)
	if outer := p.StatsOrNil(); outer != nil {
		outer.Add(&sc.st)
	}
	sc.pr = Proc{} // hold no caller hooks or pins while pooled
	scratchPool.Put(sc)
}

// Search looks up k and returns its node, or nil if k is absent.
// This is the paper's SEARCH routine (Figure 3).
func (l *List[K, V]) Search(p *Proc, k K) *Node[K, V] {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.search(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpGet)
	if !tok.Sampled() {
		n := l.search(p, k)
		l.tel.FinishOp(tok, telemetry.OpGet, nil)
		return n
	}
	sc := getScratch(p)
	n := l.search(&sc.pr, k)
	sc.finish(l.tel, tok, telemetry.OpGet, p)
	return n
}

// Get looks up k and returns its value. Convenience wrapper over Search.
func (l *List[K, V]) Get(p *Proc, k K) (V, bool) {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.get(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpGet)
	if !tok.Sampled() {
		v, ok := l.get(p, k)
		l.tel.FinishOp(tok, telemetry.OpGet, nil)
		return v, ok
	}
	sc := getScratch(p)
	v, ok := l.get(&sc.pr, k)
	sc.finish(l.tel, tok, telemetry.OpGet, p)
	return v, ok
}

// Insert adds k with value v. It returns the new node and true on success,
// or the existing node and false if k is already present.
// This is the paper's INSERT routine (Figure 5).
func (l *List[K, V]) Insert(p *Proc, k K, v V) (*Node[K, V], bool) {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.insert(p, k, v)
	}
	tok := l.tel.StartOp(telemetry.OpInsert)
	if !tok.Sampled() {
		n, ok := l.insert(p, k, v)
		l.tel.FinishOp(tok, telemetry.OpInsert, nil)
		return n, ok
	}
	sc := getScratch(p)
	n, ok := l.insert(&sc.pr, k, v)
	sc.finish(l.tel, tok, telemetry.OpInsert, p)
	return n, ok
}

// Delete removes k. It returns the deleted node and true on success, or
// nil and false if k was absent (or a concurrent deletion won the race).
// This is the paper's DELETE routine (Figure 4).
func (l *List[K, V]) Delete(p *Proc, k K) (*Node[K, V], bool) {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.remove(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpDelete)
	if !tok.Sampled() {
		n, ok := l.remove(p, k)
		l.tel.FinishOp(tok, telemetry.OpDelete, nil)
		return n, ok
	}
	sc := getScratch(p)
	n, ok := l.remove(&sc.pr, k)
	sc.finish(l.tel, tok, telemetry.OpDelete, p)
	return n, ok
}

// Ascend calls fn for each key/value in ascending order, skipping
// logically deleted nodes. Iteration is weakly consistent: it reflects
// some interleaving of concurrent updates. fn returning false stops the
// iteration.
func (l *List[K, V]) Ascend(fn func(k K, v V) bool) {
	defer l.opPin(nil).Unpin()
	if l.tel == nil {
		l.ascend(fn)
		return
	}
	// Iterations are rare, whole-structure walks: always time them.
	start := telemetry.Nanotime()
	l.ascend(fn)
	l.tel.RecordOp(telemetry.OpAscend, nil, time.Duration(telemetry.Nanotime()-start))
}

// Search looks up k and returns its root node, or nil if k is absent.
// This is SEARCH_SL.
func (l *SkipList[K, V]) Search(p *Proc, k K) *SLNode[K, V] {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.search(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpGet)
	if !tok.Sampled() {
		n := l.search(p, k)
		l.tel.FinishOp(tok, telemetry.OpGet, nil)
		return n
	}
	sc := getScratch(p)
	n := l.search(&sc.pr, k)
	sc.finish(l.tel, tok, telemetry.OpGet, p)
	return n
}

// Get looks up k and returns its value.
func (l *SkipList[K, V]) Get(p *Proc, k K) (V, bool) {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.get(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpGet)
	if !tok.Sampled() {
		v, ok := l.get(p, k)
		l.tel.FinishOp(tok, telemetry.OpGet, nil)
		return v, ok
	}
	sc := getScratch(p)
	v, ok := l.get(&sc.pr, k)
	sc.finish(l.tel, tok, telemetry.OpGet, p)
	return v, ok
}

// Insert adds k with value v, building the new tower bottom-up. It returns
// the root node and true on success, or the existing root and false if k
// is already present. The insertion is linearized at the root node's
// insertion C&S. This is INSERT_SL.
func (l *SkipList[K, V]) Insert(p *Proc, k K, v V) (*SLNode[K, V], bool) {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.insert(p, k, v)
	}
	tok := l.tel.StartOp(telemetry.OpInsert)
	if !tok.Sampled() {
		n, ok := l.insert(p, k, v)
		l.tel.FinishOp(tok, telemetry.OpInsert, nil)
		return n, ok
	}
	sc := getScratch(p)
	n, ok := l.insert(&sc.pr, k, v)
	sc.finish(l.tel, tok, telemetry.OpInsert, p)
	return n, ok
}

// Delete removes k. It deletes the root node first (making the remaining
// tower superfluous and linearizing the deletion when the root is marked),
// then sweeps levels >= 2 to physically remove the rest of the tower.
// This is DELETE_SL.
func (l *SkipList[K, V]) Delete(p *Proc, k K) (*SLNode[K, V], bool) {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.remove(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpDelete)
	if !tok.Sampled() {
		n, ok := l.remove(p, k)
		l.tel.FinishOp(tok, telemetry.OpDelete, nil)
		return n, ok
	}
	sc := getScratch(p)
	n, ok := l.remove(&sc.pr, k)
	sc.finish(l.tel, tok, telemetry.OpDelete, p)
	return n, ok
}

// Ascend calls fn for each key/value in ascending order by walking level 1,
// skipping marked roots. Weakly consistent under concurrency.
func (l *SkipList[K, V]) Ascend(fn func(k K, v V) bool) {
	defer l.opPin(nil).Unpin()
	if l.tel == nil {
		l.ascend(fn)
		return
	}
	start := telemetry.Nanotime()
	l.ascend(fn)
	l.tel.RecordOp(telemetry.OpAscend, nil, time.Duration(telemetry.Nanotime()-start))
}

// AscendRange calls fn for keys in [from, to) in ascending order. It uses
// the skip-list search to locate the start, then walks level 1.
//
// Under concurrent updates the scan is weakly consistent, with these
// guarantees (pinned by TestAscendRangeConcurrent):
//
//   - every key fn sees is in [from, to), keys arrive in strictly
//     ascending order, and no key is reported twice;
//   - a key present with the same value for the whole duration of the
//     call is reported, with that value (values are immutable once
//     inserted, so a reported value is always one the key actually held);
//   - a key inserted or deleted during the call may or may not be
//     reported - the scan reflects some interleaving of the concurrent
//     updates, never a torn state.
//
// fn returning false stops the iteration.
func (l *SkipList[K, V]) AscendRange(p *Proc, from, to K, fn func(k K, v V) bool) {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		l.ascendRange(p, from, to, fn)
		return
	}
	tok := l.tel.StartOp(telemetry.OpAscend)
	if !tok.Sampled() {
		l.ascendRange(p, from, to, fn)
		l.tel.FinishOp(tok, telemetry.OpAscend, nil)
		return
	}
	sc := getScratch(p)
	l.ascendRange(&sc.pr, from, to, fn)
	sc.finish(l.tel, tok, telemetry.OpAscend, p)
}
