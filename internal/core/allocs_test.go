package core

import (
	"testing"

	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// These tests pin the zero-allocation contract of the interned-record hot
// path: steady-state Get and Delete perform no heap allocations at all,
// and Insert allocates exactly its node - once - no matter how many C&S
// retries contention forces. They are the regression guard for the
// interning of successor records (node.go / skipnode.go): reintroducing a
// per-CAS record allocation fails them immediately.

// The skip-list gates run twice: detached, and with a recorder sampling
// every operation, as lflserver attaches one. A sampled operation must
// allocate exactly what a detached one does (telemetry.go pools its
// scratch Proc and OpStats).

// sampleEveryOp returns a recorder that samples every operation.
func sampleEveryOp() *telemetry.Recorder {
	rec := telemetry.NewRecorder(1)
	rec.SetSampleEvery(1)
	return rec
}

// zeroRng makes every skip-list tower height 1 (the first coin flip is
// "tails"), so skip-list alloc counts are deterministic.
func zeroRng() uint64 { return 0 }

func TestAllocsListGet(t *testing.T) {
	l := NewList[int, int]()
	for k := 0; k < 128; k++ {
		l.Insert(nil, k, k)
	}
	k := 0
	allocs := testing.AllocsPerRun(500, func() {
		l.Search(nil, k%128)
		l.Get(nil, (k+64)%128)
		k++
	})
	if allocs != 0 {
		t.Fatalf("Get/Search allocate %v objects per op, want 0", allocs)
	}
}

func TestAllocsListDelete(t *testing.T) {
	l := NewList[int, int]()
	const runs = 400
	for k := 0; k < runs+2; k++ {
		l.Insert(nil, k, k)
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, ok := l.Delete(nil, k); !ok {
			t.Fatalf("delete of present key %d failed", k)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("Delete allocates %v objects per op, want 0", allocs)
	}
	// Deleting an absent key (pure search) must also be allocation-free.
	if allocs := testing.AllocsPerRun(200, func() { l.Delete(nil, -1) }); allocs != 0 {
		t.Fatalf("Delete(miss) allocates %v objects per op, want 0", allocs)
	}
}

func TestAllocsListInsert(t *testing.T) {
	l := NewList[int, int]()
	for k := 0; k < 64; k++ {
		l.Insert(nil, k, k)
	}
	// A duplicate insert returns before allocating the node.
	if allocs := testing.AllocsPerRun(200, func() { l.Insert(nil, 17, 17) }); allocs != 0 {
		t.Fatalf("Insert(duplicate) allocates %v objects per op, want 0", allocs)
	}
	// An insert/delete pair allocates exactly the node: the interned
	// records ride inside it, and the deletion's three C&S install
	// interned records only.
	if allocs := testing.AllocsPerRun(200, func() {
		l.Insert(nil, 1000, 1000)
		l.Delete(nil, 1000)
	}); allocs != 1 {
		t.Fatalf("Insert+Delete pair allocates %v objects, want exactly 1 (the node)", allocs)
	}
}

// TestAllocsListInsertRetry forces the insertion C&S to fail once per
// operation - a hook deletes the insert's successor between the search and
// the C&S - and asserts the retry loop allocates nothing beyond the single
// node. Before interning, every failed attempt cost two fresh records
// (newNode.succ plus the C&S argument).
func TestAllocsListInsertRetry(t *testing.T) {
	l := NewList[int, int]()
	const runs = 200
	for k := 0; k <= 2*(runs+2); k += 2 {
		l.Insert(nil, k, k)
	}
	i := 0
	fired := false
	p := &Proc{Hooks: instrument.HookFunc(func(pt Point, pid int) {
		if pt == PtBeforeInsertCAS && !fired {
			fired = true
			// Delete the successor the pending C&S expects: its
			// predecessor's record changes and the C&S must retry.
			if _, ok := l.Delete(nil, 2*i+2); !ok {
				t.Errorf("hook delete of key %d failed", 2*i+2)
			}
		}
	})}
	retried := &OpStats{}
	p.Stats = retried
	allocs := testing.AllocsPerRun(runs, func() {
		fired = false
		if _, ok := l.Insert(p, 2*i+1, 0); !ok {
			t.Fatalf("insert of fresh key %d failed", 2*i+1)
		}
		i++
	})
	if allocs != 1 {
		t.Fatalf("contended Insert allocates %v objects per op, want exactly 1 (the node)", allocs)
	}
	if retried.CASAttempts <= retried.CASSuccesses {
		t.Fatalf("schedule did not force failed C&S attempts: %+v", retried)
	}
}

func TestAllocsSkipListGet(t *testing.T)          { allocsSkipListGet(t, nil) }
func TestAllocsSkipListGetTelemetry(t *testing.T) { allocsSkipListGet(t, sampleEveryOp()) }

func allocsSkipListGet(t *testing.T, rec *telemetry.Recorder) {
	l := NewSkipList[int, int]()
	l.SetTelemetry(rec)
	for k := 0; k < 128; k++ {
		l.Insert(nil, k, k)
	}
	k := 0
	allocs := testing.AllocsPerRun(500, func() {
		l.Search(nil, k%128)
		l.Get(nil, (k+64)%128)
		k++
	})
	if allocs != 0 {
		t.Fatalf("skip-list Get/Search allocate %v objects per op, want 0", allocs)
	}
}

func TestAllocsSkipListDelete(t *testing.T)          { allocsSkipListDelete(t, nil) }
func TestAllocsSkipListDeleteTelemetry(t *testing.T) { allocsSkipListDelete(t, sampleEveryOp()) }

func allocsSkipListDelete(t *testing.T, rec *telemetry.Recorder) {
	l := NewSkipList[int, int]()
	l.SetTelemetry(rec)
	const runs = 400
	for k := 0; k < runs+2; k++ {
		l.Insert(nil, k, k)
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, ok := l.Delete(nil, k); !ok {
			t.Fatalf("delete of present key %d failed", k)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("skip-list Delete allocates %v objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { l.Delete(nil, -1) }); allocs != 0 {
		t.Fatalf("skip-list Delete(miss) allocates %v objects per op, want 0", allocs)
	}
}

func TestAllocsSkipListInsert(t *testing.T)          { allocsSkipListInsert(t, nil) }
func TestAllocsSkipListInsertTelemetry(t *testing.T) { allocsSkipListInsert(t, sampleEveryOp()) }

func allocsSkipListInsert(t *testing.T, rec *telemetry.Recorder) {
	// Fixed height-1 towers make the alloc count deterministic: one root
	// node per successful insert.
	l := NewSkipList[int, int](WithRandomSource(zeroRng))
	l.SetTelemetry(rec)
	for k := 0; k < 64; k++ {
		l.Insert(nil, k, k)
	}
	if allocs := testing.AllocsPerRun(200, func() { l.Insert(nil, 17, 17) }); allocs != 0 {
		t.Fatalf("skip-list Insert(duplicate) allocates %v objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		l.Insert(nil, 1000, 1000)
		l.Delete(nil, 1000)
	}); allocs != 1 {
		t.Fatalf("skip-list Insert+Delete pair allocates %v objects, want exactly 1 (the root node)", allocs)
	}
}

// TestAllocsSkipListInsertRetry is the skip-list twin of
// TestAllocsListInsertRetry: a forced level-1 C&S failure per insert must
// not allocate beyond the root node.
func TestAllocsSkipListInsertRetry(t *testing.T) {
	l := NewSkipList[int, int](WithRandomSource(zeroRng))
	const runs = 200
	for k := 0; k <= 2*(runs+2); k += 2 {
		l.Insert(nil, k, k)
	}
	i := 0
	fired := false
	retried := &OpStats{}
	p := &Proc{Stats: retried, Hooks: instrument.HookFunc(func(pt Point, pid int) {
		if pt == PtBeforeInsertCAS && !fired {
			fired = true
			if _, ok := l.Delete(nil, 2*i+2); !ok {
				t.Errorf("hook delete of key %d failed", 2*i+2)
			}
		}
	})}
	allocs := testing.AllocsPerRun(runs, func() {
		fired = false
		if _, ok := l.Insert(p, 2*i+1, 0); !ok {
			t.Fatalf("insert of fresh key %d failed", 2*i+1)
		}
		i++
	})
	if allocs != 1 {
		t.Fatalf("contended skip-list Insert allocates %v objects per op, want exactly 1 (the root node)", allocs)
	}
	if retried.CASAttempts <= retried.CASSuccesses {
		t.Fatalf("schedule did not force failed C&S attempts: %+v", retried)
	}
}

// BenchmarkAllocs* report allocs/op for the benchstat gate
// (scripts/benchdiff.sh) alongside the AllocsPerRun hard assertions above.

func BenchmarkAllocsListGet(b *testing.B) {
	l := NewList[int, int]()
	for k := 0; k < 1024; k++ {
		l.Insert(nil, k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Search(nil, (i*7919)%1024)
	}
}

func BenchmarkAllocsListInsertDelete(b *testing.B) {
	l := NewList[int, int]()
	l.Insert(nil, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(nil, 1, 1)
		l.Delete(nil, 1)
	}
}

func BenchmarkAllocsSkipListGet(b *testing.B) {
	l := NewSkipList[int, int]()
	for k := 0; k < 1024; k++ {
		l.Insert(nil, k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Search(nil, (i*7919)%1024)
	}
}

func BenchmarkAllocsSkipListInsertDelete(b *testing.B) {
	l := NewSkipList[int, int]()
	l.Insert(nil, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(nil, 1, 1)
		l.Delete(nil, 1)
	}
}

// The finger and batch paths inherit the zero-allocation contract: Get
// and Delete through a finger allocate nothing, batch Get/Delete allocate
// nothing, and a batch insert allocates exactly its nodes - the threading
// finger lives on the caller's stack.

func TestAllocsListFinger(t *testing.T) {
	l := NewList[int, int]()
	const runs = 400
	for k := 0; k < runs+2; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		l2 := k % (runs + 2)
		f.Get(nil, l2)
		f.Search(nil, (l2+1)%(runs+2))
		k++
	})
	if allocs != 0 {
		t.Fatalf("finger Get/Search allocate %v objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { f.Insert(nil, 17, 17) }); allocs != 0 {
		t.Fatalf("finger Insert(duplicate) allocates %v objects per op, want 0", allocs)
	}
	k = 0
	allocs = testing.AllocsPerRun(runs, func() {
		if _, ok := f.Delete(nil, k); !ok {
			t.Fatalf("finger delete of present key %d failed", k)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("finger Delete allocates %v objects per op, want 0", allocs)
	}
}

func TestAllocsSkipListFinger(t *testing.T)          { allocsSkipListFinger(t, nil) }
func TestAllocsSkipListFingerTelemetry(t *testing.T) { allocsSkipListFinger(t, sampleEveryOp()) }

func allocsSkipListFinger(t *testing.T, rec *telemetry.Recorder) {
	l := NewSkipList[int, int](WithRandomSource(zeroRng))
	l.SetTelemetry(rec)
	const runs = 400
	for k := 0; k < runs+2; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		f.Get(nil, k%(runs+2))
		k++
	})
	if allocs != 0 {
		t.Fatalf("skip finger Get allocates %v objects per op, want 0", allocs)
	}
	k = 0
	allocs = testing.AllocsPerRun(runs, func() {
		if _, ok := f.Delete(nil, k); !ok {
			t.Fatalf("skip finger delete of present key %d failed", k)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("skip finger Delete allocates %v objects per op, want 0", allocs)
	}
}

func TestAllocsListBatch(t *testing.T) {
	l := NewList[int, int]()
	for k := 0; k < 256; k++ {
		l.Insert(nil, k, k)
	}
	keys := make([]int, 16)
	vals := make([]int, 16)
	found := make([]bool, 16)
	allocs := testing.AllocsPerRun(300, func() {
		for i := range keys {
			keys[i] = (i * 37) % 256
		}
		l.GetBatch(nil, keys, vals, found)
	})
	if allocs != 0 {
		t.Fatalf("GetBatch allocates %v objects per batch, want 0", allocs)
	}
	// Insert+Delete of B fresh keys allocates exactly B nodes: the
	// sorting, the finger, and the result bookkeeping add nothing.
	items := make([]KV[int, int], 16)
	allocs = testing.AllocsPerRun(300, func() {
		for i := range items {
			items[i] = KV[int, int]{Key: 1000 + i, Value: i}
			keys[i] = 1000 + i
		}
		if n := l.InsertBatch(nil, items, nil); n != len(items) {
			t.Fatalf("InsertBatch = %d, want %d", n, len(items))
		}
		if n := l.DeleteBatch(nil, keys, nil); n != len(keys) {
			t.Fatalf("DeleteBatch = %d, want %d", n, len(keys))
		}
	})
	if allocs != float64(len(items)) {
		t.Fatalf("InsertBatch+DeleteBatch allocate %v objects per batch, want exactly %d (the nodes)",
			allocs, len(items))
	}
}

func TestAllocsSkipListBatch(t *testing.T) {
	l := NewSkipList[int, int](WithRandomSource(zeroRng))
	for k := 0; k < 256; k++ {
		l.Insert(nil, k, k)
	}
	keys := make([]int, 16)
	allocs := testing.AllocsPerRun(300, func() {
		for i := range keys {
			keys[i] = (i * 37) % 256
		}
		l.GetBatch(nil, keys, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("skip-list GetBatch allocates %v objects per batch, want 0", allocs)
	}
	items := make([]KV[int, int], 16)
	allocs = testing.AllocsPerRun(300, func() {
		for i := range items {
			items[i] = KV[int, int]{Key: 1000 + i, Value: i}
			keys[i] = 1000 + i
		}
		if n := l.InsertBatch(nil, items, nil); n != len(items) {
			t.Fatalf("InsertBatch = %d, want %d", n, len(items))
		}
		if n := l.DeleteBatch(nil, keys, nil); n != len(keys) {
			t.Fatalf("DeleteBatch = %d, want %d", n, len(keys))
		}
	})
	if allocs != float64(len(items)) {
		t.Fatalf("skip-list InsertBatch+DeleteBatch allocate %v objects per batch, want exactly %d",
			allocs, len(items))
	}
}

func BenchmarkAllocsListFingerGet(b *testing.B) {
	l := NewList[int, int]()
	for k := 0; k < 1024; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Get(nil, i%1024)
	}
}

func BenchmarkAllocsSkipListFingerGet(b *testing.B) {
	l := NewSkipList[int, int]()
	for k := 0; k < 1024; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Get(nil, i%1024)
	}
}

func BenchmarkAllocsSkipListBatchGet(b *testing.B) {
	l := NewSkipList[int, int]()
	for k := 0; k < 1024; k++ {
		l.Insert(nil, k, k)
	}
	keys := make([]int, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = (i + j) % 1024
		}
		l.GetBatch(nil, keys, nil, nil)
	}
}
