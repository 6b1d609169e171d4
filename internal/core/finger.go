package core

import (
	"repro/internal/ebr"
	"repro/internal/telemetry"
)

// This file implements search fingers: cursor handles that remember where
// the previous operation ended and start the next search there instead of
// at the head (list) or the top of the head tower (skip list).
//
// The mechanism is exactly the paper's: SEARCHFROM (Figure 3) is proved
// correct from ANY start node that orders <= k (strictly < k for the
// "k - epsilon" searches) and that was in the list at some point - the
// insert retry loop (Insert line 19) and TryFlag's recovery already invoke
// it from interior nodes. A finger merely persists such a node across
// operations. Validity under concurrent deletion comes for free from
// backlink recovery:
//
//	Finger invariant: a finger holds a node that was in its list at the
//	moment it was recorded. If that node has since been marked, its
//	backlink chain leads left to a node that was in the list no earlier
//	than the finger node's deletion; walking it (never restarting from
//	head) re-establishes a valid start node, because marked nodes'
//	successor fields are frozen and backlinks always point to a
//	(one-time) predecessor. The only case that forces a head/top restart
//	is a key ordering below the recovered finger position - a fallback
//	of convenience, not of correctness.
//
// internal/adversary/finger_test.go pins the invariant with schedules that
// fully delete (flag -> mark -> physical) the finger's node between
// operations; DESIGN.md maps the amortized O(n + k*d + c) batch bound to
// the paper's O(n(S) + c(S)) analysis.

// Finger is a cursor over a List. It is owned by a single goroutine (one
// finger per goroutine, like a Proc); the list itself remains safe for any
// number of concurrent fingers and plain operations. The zero value is
// unusable; obtain one from List.NewFinger, or embed one per worker.
//
// Operations through a finger cost one short hop sequence when keys
// arrive in nearly ascending order (the clustered/batched regime) and
// degrade gracefully to a full from-head search otherwise. A finger keeps
// its remembered node - and, transitively, that node's frozen successors -
// reachable for the garbage collector, so park long-lived idle fingers
// with Reset.
type Finger[K comparable, V any] struct {
	l    *List[K, V]
	prev *Node[K, V]
	// pin keeps the remembered node's memory out of the recycler between
	// operations (a per-op pin would leave a gap in which prev could be
	// recycled and re-keyed mid-read). Acquired lazily on the first
	// operation, released by Reset; nil when the list does not recycle.
	pin *ebr.Pin
}

// NewFinger returns a finger positioned at the head (the first operation
// searches from the head and remembers where it ended).
func (l *List[K, V]) NewFinger() *Finger[K, V] { return &Finger[K, V]{l: l} }

// List returns the list this finger traverses.
func (f *Finger[K, V]) List() *List[K, V] { return f.l }

// Reset forgets the remembered position: the next operation searches from
// the head, drops the finger's reference into the structure, and releases
// the finger's recycling pin — park long-lived idle fingers with Reset,
// or their pin stalls the epoch and retire lists hit their drop-to-GC cap.
func (f *Finger[K, V]) Reset() {
	f.prev = nil
	f.pin.Unpin()
	f.pin = nil
}

// ensurePin takes the finger's lifetime pin on first use. Unlike the
// per-op wrappers it never borrows the caller's Proc.Epoch pin: the
// finger outlives any single call.
func (f *Finger[K, V]) ensurePin() {
	if f.pin == nil && f.l.rec != nil {
		f.pin = f.l.rec.dom.Pin()
	}
}

// startNode resolves the finger to a valid search start for key k: the
// remembered node after backlink recovery when it still orders <= k
// (< k in strict mode), the head otherwise. Hits and misses are recorded
// in the Proc's stats under the finger_hits/finger_misses counters.
func (f *Finger[K, V]) startNode(p *Proc, k K, strict bool) *Node[K, V] {
	st := p.StatsOrNil()
	n := f.prev
	if n == nil {
		st.IncFinger(false)
		return f.l.head
	}
	// A deleted finger node walks backlinks - never restarts from head.
	for n.marked() {
		st.IncBacklink()
		p.At(PtBacklinkStep)
		n = n.backlink.Load()
	}
	if f.l.nodeLeq(n, k, strict) {
		st.IncFinger(true)
		return n
	}
	st.IncFinger(false)
	return f.l.head
}

// search looks up k from the finger; see List.search.
func (f *Finger[K, V]) search(p *Proc, k K) *Node[K, V] {
	curr, _ := f.l.searchFrom(p, k, f.startNode(p, k, false), false)
	f.prev = curr
	if f.l.cmpNode(curr, k) == 0 {
		return curr
	}
	return nil
}

// get looks up k from the finger; see List.get.
func (f *Finger[K, V]) get(p *Proc, k K) (V, bool) {
	if n := f.search(p, k); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// insert adds k from the finger; see List.insert. The finger ends on the
// node carrying k (freshly inserted or the existing duplicate).
func (f *Finger[K, V]) insert(p *Proc, k K, v V) (*Node[K, V], bool) {
	n, ok := f.l.insertFrom(p, k, v, f.startNode(p, k, false))
	f.prev = n
	return n, ok
}

// remove deletes k from the finger; see List.remove. The finger ends on
// the last observed predecessor of k, which survives the deletion.
func (f *Finger[K, V]) remove(p *Proc, k K) (*Node[K, V], bool) {
	prev, delNode := f.l.searchFrom(p, k, f.startNode(p, k, true), true)
	f.prev = prev
	if f.l.cmpNode(delNode, k) != 0 {
		return nil, false
	}
	return f.l.removeAt(p, prev, delNode)
}

// Search looks up k starting from the finger and returns its node, or nil
// if k is absent. The finger moves to where the search ended.
func (f *Finger[K, V]) Search(p *Proc, k K) *Node[K, V] {
	f.ensurePin()
	l := f.l
	if l.tel == nil {
		return f.search(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpGet)
	if !tok.Sampled() {
		n := f.search(p, k)
		l.tel.FinishOp(tok, telemetry.OpGet, nil)
		return n
	}
	sc := getScratch(p)
	n := f.search(&sc.pr, k)
	sc.finish(l.tel, tok, telemetry.OpGet, p)
	return n
}

// Get looks up k starting from the finger.
func (f *Finger[K, V]) Get(p *Proc, k K) (V, bool) {
	f.ensurePin()
	l := f.l
	if l.tel == nil {
		return f.get(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpGet)
	if !tok.Sampled() {
		v, ok := f.get(p, k)
		l.tel.FinishOp(tok, telemetry.OpGet, nil)
		return v, ok
	}
	sc := getScratch(p)
	v, ok := f.get(&sc.pr, k)
	sc.finish(l.tel, tok, telemetry.OpGet, p)
	return v, ok
}

// Insert adds k with value v starting the search from the finger. Returns
// the new node and true, or the existing node and false on a duplicate.
func (f *Finger[K, V]) Insert(p *Proc, k K, v V) (*Node[K, V], bool) {
	f.ensurePin()
	l := f.l
	if l.tel == nil {
		return f.insert(p, k, v)
	}
	tok := l.tel.StartOp(telemetry.OpInsert)
	if !tok.Sampled() {
		n, ok := f.insert(p, k, v)
		l.tel.FinishOp(tok, telemetry.OpInsert, nil)
		return n, ok
	}
	sc := getScratch(p)
	n, ok := f.insert(&sc.pr, k, v)
	sc.finish(l.tel, tok, telemetry.OpInsert, p)
	return n, ok
}

// Delete removes k starting the search from the finger.
func (f *Finger[K, V]) Delete(p *Proc, k K) (*Node[K, V], bool) {
	f.ensurePin()
	l := f.l
	if l.tel == nil {
		return f.remove(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpDelete)
	if !tok.Sampled() {
		n, ok := f.remove(p, k)
		l.tel.FinishOp(tok, telemetry.OpDelete, nil)
		return n, ok
	}
	sc := getScratch(p)
	n, ok := f.remove(&sc.pr, k)
	sc.finish(l.tel, tok, telemetry.OpDelete, p)
	return n, ok
}

// maxFingerLevels bounds the per-level predecessor memory of a SkipFinger;
// it equals the WithMaxLevel clamp, so every configuration fits.
const maxFingerLevels = 64

// fingerProbeHops bounds the adjacency probe on the target level: if the
// key is not bracketed within this many hops of the level-v finger, the
// search falls back to descending from the finger's top level (and from
// there, possibly, to the head tower). Small enough that a probe that
// fails costs a constant, large enough to cover a clustered batch's
// typical inter-key gap.
const fingerProbeHops = 8

// SkipFinger is a cursor over a SkipList: it remembers the predecessor
// tower of the last search (one node per level) and starts the next
// search there when the key is >= the finger position, descending from
// the head tower otherwise. Owned by a single goroutine, like Finger.
// The zero value is unusable; obtain one from SkipList.NewFinger.
type SkipFinger[K comparable, V any] struct {
	l *SkipList[K, V]
	// top is the highest level with a recorded predecessor; 0 when cold.
	top int
	// prevs[i] is the predecessor this finger last observed on level i+1.
	// Only levels 1..top are meaningful.
	prevs [maxFingerLevels]*SLNode[K, V]
	// pin keeps the remembered towers out of the recycler between
	// operations; see Finger.pin.
	pin *ebr.Pin
}

// NewFinger returns a finger positioned at the head tower.
func (l *SkipList[K, V]) NewFinger() *SkipFinger[K, V] {
	return &SkipFinger[K, V]{l: l}
}

// SkipList returns the skip list this finger traverses.
func (f *SkipFinger[K, V]) SkipList() *SkipList[K, V] { return f.l }

// Reset forgets the remembered position, drops the finger's references
// into the structure, and releases the finger's recycling pin (see
// Finger.Reset).
func (f *SkipFinger[K, V]) Reset() {
	f.top = 0
	clear(f.prevs[:])
	f.pin.Unpin()
	f.pin = nil
}

// ensurePin takes the finger's lifetime pin on first use; see
// Finger.ensurePin.
func (f *SkipFinger[K, V]) ensurePin() {
	if f.pin == nil && f.l.rec != nil {
		f.pin = f.l.rec.dom.Pin()
	}
}

// recover walks n's backlinks (within one level) to the first unmarked
// node - the finger invariant's validation step.
func (f *SkipFinger[K, V]) recover(p *Proc, n *SLNode[K, V]) *SLNode[K, V] {
	st := p.StatsOrNil()
	for n.marked() {
		st.IncBacklink()
		p.At(PtBacklinkStep)
		n = n.backlink.Load()
	}
	return n
}

// start resolves the finger to a search start for key k on level v. It
// tries, in order:
//
//  1. the level-v finger itself, when the key is bracketed within a
//     constant probe of it - the O(d) hop path for clustered keys;
//  2. the finger's top-level predecessor, descending from there -
//     bounded by a full search but localized near the finger;
//  3. the head tower (findStart) - the plain from-top search.
//
// Cases 1-2 are finger hits, case 3 a miss.
func (f *SkipFinger[K, V]) start(p *Proc, k K, v int, strict bool) (*SLNode[K, V], int) {
	st := p.StatsOrNil()
	l := f.l
	// Above level 1 the start must order strictly below k even in a
	// non-strict search: approaching k's own tower from a true predecessor
	// lets searchRight examine the tower's node - and, when the tower is
	// dead (superfluous), complete its three-step deletion. Starting on
	// the node itself would skip that duty, stranding the tower after a
	// finger Delete's sweep and livelocking an Insert retrying against it.
	// On level 1 a dead node is marked, not superfluous, so recover()
	// already rules it out and an exact-key start is safe. The probe
	// advances strictly below k at every level for the same reason,
	// leaving the final approach to searchRight.
	candStrict := strict || v > 1
	if f.top >= v && f.prevs[v-1] != nil {
		n := f.recover(p, f.prevs[v-1])
		if l.nodeLeq(n, k, candStrict) {
			for hops := 0; hops < fingerProbeHops; hops++ {
				next := n.right()
				st.IncNext()
				if !l.nodeLeq(next, k, true) {
					st.IncFinger(true)
					return n, v // bracketed: the search ends in O(1)
				}
				n = next
				st.IncCurr()
			}
		}
	}
	if f.top > v {
		n := f.recover(p, f.prevs[f.top-1])
		if l.nodeLeq(n, k, candStrict) {
			st.IncFinger(true)
			return n, f.top
		}
	}
	st.IncFinger(false)
	curr, lv := l.findStart(v)
	f.top = lv
	return curr, lv
}

// sweep implements slSearcher's post-deletion cleanup. Unlike the probe
// path, it must cover every nonempty level down to 2 - the deleted tower
// can be taller than anything this finger has seen - so it descends from
// the top of the structure like the plain sweep, but on each level jumps
// to the finger's recorded predecessor when that is still a strict
// predecessor of k: for clustered deletes each level's walk is then a
// short hop instead of a scan from the head.
func (f *SkipFinger[K, V]) sweep(p *Proc, k K) {
	l := f.l
	curr, lv := l.findStart(2)
	if lv > f.top {
		f.top = lv
	}
	for ; lv >= 2; lv-- {
		if c := f.prevs[lv-1]; c != nil {
			c = f.recover(p, c)
			if l.nodeLeq(c, k, true) {
				curr = c
			}
		}
		curr, _ = l.searchRight(p, k, curr, false)
		f.prevs[lv-1] = curr
		curr = curr.down
	}
}

// searchToLevel implements slSearcher: the finger-accelerated counterpart
// of SkipList.searchToLevel. Every level it traverses refreshes the
// corresponding finger predecessor.
func (f *SkipFinger[K, V]) searchToLevel(p *Proc, k K, v int, strict bool) (*SLNode[K, V], *SLNode[K, V]) {
	curr, lv := f.start(p, k, v, strict)
	for lv > v {
		curr, _ = f.l.searchRight(p, k, curr, strict)
		f.prevs[lv-1] = curr
		curr = curr.down
		lv--
	}
	curr, next := f.l.searchRight(p, k, curr, strict)
	f.prevs[v-1] = curr
	return curr, next
}

// Search looks up k starting from the finger and returns its root node,
// or nil if k is absent.
func (f *SkipFinger[K, V]) Search(p *Proc, k K) *SLNode[K, V] {
	f.ensurePin()
	l := f.l
	if l.tel == nil {
		return l.searchVia(p, f, k)
	}
	tok := l.tel.StartOp(telemetry.OpGet)
	if !tok.Sampled() {
		n := l.searchVia(p, f, k)
		l.tel.FinishOp(tok, telemetry.OpGet, nil)
		return n
	}
	sc := getScratch(p)
	n := l.searchVia(&sc.pr, f, k)
	sc.finish(l.tel, tok, telemetry.OpGet, p)
	return n
}

// Get looks up k starting from the finger.
func (f *SkipFinger[K, V]) Get(p *Proc, k K) (V, bool) {
	if n := f.Search(p, k); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Insert adds k with value v starting every level search from the finger.
func (f *SkipFinger[K, V]) Insert(p *Proc, k K, v V) (*SLNode[K, V], bool) {
	f.ensurePin()
	l := f.l
	if l.tel == nil {
		return l.insertVia(p, f, k, v)
	}
	tok := l.tel.StartOp(telemetry.OpInsert)
	if !tok.Sampled() {
		n, ok := l.insertVia(p, f, k, v)
		l.tel.FinishOp(tok, telemetry.OpInsert, nil)
		return n, ok
	}
	sc := getScratch(p)
	n, ok := l.insertVia(&sc.pr, f, k, v)
	sc.finish(l.tel, tok, telemetry.OpInsert, p)
	return n, ok
}

// Delete removes k starting every level search from the finger.
func (f *SkipFinger[K, V]) Delete(p *Proc, k K) (*SLNode[K, V], bool) {
	f.ensurePin()
	l := f.l
	if l.tel == nil {
		return l.removeVia(p, f, k)
	}
	tok := l.tel.StartOp(telemetry.OpDelete)
	if !tok.Sampled() {
		n, ok := l.removeVia(p, f, k)
		l.tel.FinishOp(tok, telemetry.OpDelete, nil)
		return n, ok
	}
	sc := getScratch(p)
	n, ok := l.removeVia(&sc.pr, f, k)
	sc.finish(l.tel, tok, telemetry.OpDelete, p)
	return n, ok
}
