package core

import (
	"sync"
	"testing"
	"unsafe"
)

// TestSLNodeLayout pins the cache-line layout of the skip-list node (see
// SLNode): a search hop reads a predecessor's record, which lives in the
// next node's refs, then that node's key and succ. All three must sit in
// the node's first 64 bytes, and the node must fill the 128 B size class
// exactly, whose objects are 128-byte aligned, so that those 64 bytes are
// one cache line.
func TestSLNodeLayout(t *testing.T) {
	var n SLNode[int, string]
	if got := unsafe.Sizeof(n); got != 128 {
		t.Fatalf("Sizeof(SLNode[int, string]) = %d, want 128", got)
	}
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"refs", unsafe.Offsetof(n.refs), unsafe.Sizeof(n.refs)},
		{"key", unsafe.Offsetof(n.key), unsafe.Sizeof(n.key)},
		{"succ", unsafe.Offsetof(n.succ), unsafe.Sizeof(n.succ)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("%s occupies bytes [%d, %d), want it inside [0, 64)", f.name, f.off, f.off+f.size)
		}
	}
}

// towerRoles returns the role (true = root) of every interior node
// published on any level of a quiescent skip list, keyed by identity.
func towerRoles(l *SkipList[int, int]) map[*SLNode[int, int]]bool {
	roles := make(map[*SLNode[int, int]]bool)
	for lv := 1; lv <= l.MaxLevel(); lv++ {
		for n := l.HeadAt(lv).right(); n.kind == kindInterior; n = n.right() {
			roles[n] = n.towerRoot == n
		}
	}
	return roles
}

// TestRecycleReinternsRoles churns a recycling skip list with varied tower
// heights, so freed roots come back as upper nodes and freed upper nodes
// as roots. After every round CheckStructure must pass, which includes
// that every published node's records carry its current kind and root
// bit; the test fails unless both role changes were actually observed.
func TestRecycleReinternsRoles(t *testing.T) {
	l := NewSkipList[int, int](WithRecycling())
	// Short rounds: a role change is seen only when a node is published
	// at the end of two rounds, so the rounds must be frequent.
	const workers = 2
	const perWorker = 200
	const span = 64
	seen := make(map[*SLNode[int, int]]bool)
	var toUpper, toRoot int
	for round := 0; round < 100; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					k := (w*17 + i*7 + round) % span
					if i%2 == 0 {
						l.Insert(nil, k, i)
					} else {
						l.Delete(nil, k)
					}
				}
			}(w)
		}
		wg.Wait()
		for i := 0; i < 3; i++ {
			l.ForceReclaim(nil)
		}
		if err := l.CheckStructure(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for n, root := range towerRoles(l) {
			if was, ok := seen[n]; ok && was != root {
				if root {
					toRoot++
				} else {
					toUpper++
				}
			}
			seen[n] = root
		}
	}
	if recycled, _ := l.RecycleCounts(); recycled == 0 {
		t.Fatal("churn recycled no nodes")
	}
	t.Logf("role changes: root->upper %d, upper->root %d", toUpper, toRoot)
	if toUpper == 0 || toRoot == 0 {
		t.Fatalf("role changes observed: root->upper %d, upper->root %d; want both > 0", toUpper, toRoot)
	}
}
