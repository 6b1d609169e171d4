package core

import (
	"testing"
)

// TestSearchToLevelPostconditions checks the SEARCHTOLEVEL_SL contract at
// every level: it returns adjacent (curr, next) with curr.key <= k <
// next.key (strict: curr.key < k <= next.key) on the requested level.
func TestSearchToLevelPostconditions(t *testing.T) {
	// Deterministic heights cycling 1..4 so every level is populated.
	heights := []uint64{0b0, 0b1, 0b11, 0b111}
	i := 0
	rng := func() uint64 {
		h := heights[i%len(heights)]
		i++
		return h
	}
	l := NewSkipList[int, int](WithRandomSource(rng))
	for k := 0; k < 200; k += 2 {
		l.Insert(nil, k, k)
	}
	for v := 1; v <= 4; v++ {
		for k := -1; k <= 201; k++ {
			curr, next := l.searchToLevel(nil, k, v, false)
			if curr.Level() != v && curr.kind == kindInterior {
				t.Fatalf("level %d: curr on level %d", v, curr.level)
			}
			if !(l.cmpNode(curr, k) <= 0) || !(l.cmpNode(next, k) > 0) {
				t.Fatalf("level %d, k=%d: postcondition violated", v, k)
			}
			sc, sn := l.searchToLevel(nil, k, v, true)
			if !(l.cmpNode(sc, k) < 0) || !(l.cmpNode(sn, k) >= 0) {
				t.Fatalf("level %d, k=%d: strict postcondition violated", v, k)
			}
		}
	}
}

// TestFindStartSkipsEmptyLevels checks that findStart never starts above
// the lowest empty level (plus one), so descending searches do not waste
// head-to-tail hops on empty express lanes.
func TestFindStartSkipsEmptyLevels(t *testing.T) {
	l := NewSkipList[int, int](WithRandomSource(func() uint64 { return 0b11 })) // height 3
	for k := 0; k < 50; k++ {
		l.Insert(nil, k, k)
	}
	start, lv := l.findStart(1)
	// Towers are height 3, so level 4 is the first empty level; the climb
	// must stop at level 4 or below.
	if lv > 4 {
		t.Fatalf("findStart climbed to level %d with towers of height 3", lv)
	}
	if start.kind != kindHead {
		t.Fatal("findStart returned a non-head node")
	}
	// Requesting a level above the populated ones must still be honored.
	_, lv8 := l.findStart(8)
	if lv8 < 8 {
		t.Fatalf("findStart(8) stopped at %d", lv8)
	}
}

// TestSearchRightStopsAtBound verifies searchRight does not run past the
// first node with key >= k even when that node is marked (matching
// SearchFrom's contract, where cleanup guards only run inside the bound).
func TestSearchRightStopsAtBound(t *testing.T) {
	l := NewSkipList[int, int](WithRandomSource(func() uint64 { return 0 }))
	for k := 0; k < 30; k += 3 {
		l.Insert(nil, k, k)
	}
	curr, next := l.searchRight(nil, 10, l.heads[0], false)
	if curr.key != 9 || next.key != 12 {
		t.Fatalf("searchRight(10) = (%d, %d), want (9, 12)", curr.key, next.key)
	}
	curr, next = l.searchRight(nil, 12, l.heads[0], true)
	if curr.key != 9 || next.key != 12 {
		t.Fatalf("strict searchRight(12) = (%d, %d), want (9, 12)", curr.key, next.key)
	}
}

// TestSkipListGetAfterPartialTeardown deletes a tall tower's root directly
// via the level-1 machinery (leaving the upper levels superfluous), then
// checks searches miss the key and repair the leftovers.
func TestSkipListGetAfterPartialTeardown(t *testing.T) {
	l := NewSkipList[int, int](WithRandomSource(func() uint64 { return 0b1111 })) // height 5
	for k := 0; k < 10; k++ {
		l.Insert(nil, k, k)
	}
	// Tear down only the root of key 5 using the internal level-1 delete,
	// simulating a deleter that dies before sweeping the upper levels.
	prev, delNode := l.searchToLevel(nil, 5, 1, true)
	if delNode.key != 5 {
		t.Fatal("setup failed")
	}
	if !l.deleteNode(nil, prev, delNode) {
		t.Fatal("root deletion failed")
	}
	// The key is logically gone even though four superfluous nodes remain.
	if _, ok := l.Get(nil, 5); ok {
		t.Fatal("key visible after root deletion")
	}
	// Searches on the upper levels encounter the superfluous nodes and
	// must clean them up.
	for v := 0; v < 3; v++ {
		l.Search(nil, 5)
		l.Search(nil, 6)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	// Reinsertion works and coexists with whatever cleanup remains.
	if _, ok := l.Insert(nil, 5, 55); !ok {
		t.Fatal("reinsert failed")
	}
	if v, ok := l.Get(nil, 5); !ok || v != 55 {
		t.Fatalf("Get(5) = %d, %t", v, ok)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}
