package core

import (
	"sync/atomic"
)

// slSucc is the composite successor field of a skip-list node, analogous to
// succ for the plain list: (right, mark, flag) swapped atomically as an
// immutable record. Like the list's records, they are interned per node
// (see SLNode.refs), so C&S sites never allocate.
//
// kind and root are copies of right's kind and of "right is its tower's
// root", written by intern into the padding after marked/flagged. A search
// hop reaches next through one of these records, so comparing next (kind,
// then key) and testing it for superfluousness read the cache line the hop
// already loaded instead of a second line of next.
type slSucc[K comparable, V any] struct {
	right   *SLNode[K, V]
	marked  bool
	flagged bool
	kind    nodeKind
	root    bool
}

// SLNode is one node of the lock-free skip list. Following the paper's
// Figure 6, every key is represented by a tower of nodes; the bottom node
// of a tower is its root and carries the element. Nodes on the same level
// form an instance of the paper's lock-free linked list.
//
// The fields are ordered as a search hop reads them. The hop loads a
// predecessor's succ, which points into this node's refs; it then
// compares key and, when it moves on, loads succ. refs, key and succ
// therefore come first: for SLNode[int, string] they fill bytes [0, 64)
// and the node is exactly 128 B, a size class whose objects are 128-byte
// aligned, so a hop reads one cache line of each node it passes
// (TestSLNodeLayout pins this). Everything a hop does not read follows.
//
// down and towerRoot are fixed while the node is published. up pointers
// exist only inside the head and tail towers (the top node's up points to
// itself).
type SLNode[K comparable, V any] struct {
	// refs holds the node's interned successor records (clean, flagged,
	// marked - the only records whose right pointer is this node), written
	// by intern before publication; see Node.refs in node.go.
	refs [numRefs]slSucc[K, V]
	key  K
	succ atomic.Pointer[slSucc[K, V]]

	val      V // meaningful only on root nodes
	backlink atomic.Pointer[SLNode[K, V]]

	down      *SLNode[K, V] // node one level below, nil on roots
	towerRoot *SLNode[K, V] // root of this node's tower (self on roots)
	up        *SLNode[K, V] // head/tail towers only

	// Recycling state (recycle.go), meaningful only when the owning skip
	// list recycles nodes. reLink is the intrusive chain of unlinked upper
	// nodes: the head hangs off the root, each interior's reLink is its
	// chain successor. towerLive - used on roots - counts the tower's
	// not-yet-unlinked nodes (1 for the root plus 1 per upper node,
	// acquired before each upper node is created); the tower retires as
	// one batch when it reaches zero, because down/towerRoot edges point
	// at earlier-unlinked nodes (the sweep unlinks the root first).
	reLink atomic.Pointer[SLNode[K, V]]

	// kind, level and towerLive share the last word. level is 1 for root
	// nodes, counting upward; it is recorded for structure validation and
	// statistics, and the algorithms themselves never read it.
	kind      nodeKind
	level     int16
	towerLive atomic.Int32
}

// intern builds the node's interned successor records, copying its kind
// and root bit into each. It runs after kind and towerRoot are set and
// before the node is published: once at allocation, and again each time
// the recycler reissues the node, since a reused node may change between
// root and upper (recycle.go). While the node is published its records
// never change.
func (n *SLNode[K, V]) intern() {
	root := n.towerRoot == n
	n.refs[refClean] = slSucc[K, V]{right: n, kind: n.kind, root: root}
	n.refs[refFlagged] = slSucc[K, V]{right: n, flagged: true, kind: n.kind, root: root}
	n.refs[refMarked] = slSucc[K, V]{right: n, marked: true, kind: n.kind, root: root}
}

// asClean returns the interned record (n, unmarked, unflagged).
func (n *SLNode[K, V]) asClean() *slSucc[K, V] { return &n.refs[refClean] }

// asFlagged returns the interned record (n, unmarked, flagged).
func (n *SLNode[K, V]) asFlagged() *slSucc[K, V] { return &n.refs[refFlagged] }

// asMarked returns the interned record (n, marked, unflagged).
func (n *SLNode[K, V]) asMarked() *slSucc[K, V] { return &n.refs[refMarked] }

// Key returns the node's key.
func (n *SLNode[K, V]) Key() K { return n.key }

// Value returns the element stored in the node's tower root.
func (n *SLNode[K, V]) Value() V { return n.towerRoot.val }

// Level returns the node's level (1 = root level).
func (n *SLNode[K, V]) Level() int { return int(n.level) }

// TowerRoot returns the root node of this node's tower.
func (n *SLNode[K, V]) TowerRoot() *SLNode[K, V] { return n.towerRoot }

func (n *SLNode[K, V]) loadSucc() *slSucc[K, V] { return n.succ.Load() }

func (n *SLNode[K, V]) marked() bool {
	s := n.succ.Load()
	return s != nil && s.marked
}

func (n *SLNode[K, V]) right() *SLNode[K, V] { return n.succ.Load().right }

// hopKind returns n's kind as copied into its records, which share the
// cache line of n's key and succ.
func (n *SLNode[K, V]) hopKind() nodeKind { return n.refs[refClean].kind }

// isRoot reports whether n is the root node of its tower.
func (n *SLNode[K, V]) isRoot() bool { return n.refs[refClean].root }

// superfluous reports whether n belongs to a tower whose root has been
// marked (Section 4): such nodes are removed by searches that encounter
// them. This is the paper's tower_root.mark test; on a root, whose tower
// root is itself, it reads n's own succ and never follows towerRoot.
func (n *SLNode[K, V]) superfluous() bool {
	r := &n.refs[refClean]
	if r.kind != kindInterior {
		return false
	}
	if r.root {
		return n.marked()
	}
	return n.towerRoot.marked()
}

// Key comparisons treating sentinels as -inf/+inf live on the SkipList
// (it owns the compare function); see SkipList.cmpNode and SkipList.nodeLeq.
