package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/snapshot"
	"repro/lockfree"
	ltel "repro/lockfree/telemetry"
)

// lib-mixed drives the store in process, with no wire and no log: two
// goroutines on shared keys, 80% Get / 10% Insert / 10% Delete, uniform
// over the key space, half of it prefilled.

const (
	libWorkers   = 2
	libValues    = 1024    // values come from a fixed pool, so memory per key measures the structure
	libRingLen   = 1 << 20 // pre-generated operations per worker, replayed cyclically
	opGet        = 0
	opInsert     = 1
	opDelete     = 2
	libOpKeyBits = 30

	// A set-up or a restore handles 2^19 keys and takes about a second
	// here; three set-ups and five restores keep a run near half a minute.
	libSetups   = 3
	libRestores = 5
)

type libWorker struct {
	rec           *windowRec
	total         uint64 // ops including warm-up
	ins, del, bad uint64
	reqLog, calls *spanLog
	ring          []uint32
}

func measureLib(cfg config, traced bool) (*e2e, map[string]float64, error) {
	n := cfg.size.libKeys
	r := &e2e{}
	g := &rng{s: cfg.seed}
	vals := make([]string, libValues)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%015x", g.next()&(1<<60-1))
	}
	prefill := g.perm(n)[:n/2]
	workers := make([]*libWorker, libWorkers)
	for w := range workers {
		ring := make([]uint32, libRingLen)
		for i := range ring {
			x := g.next()
			op := uint32(opGet)
			switch p := x % 100; {
			case p >= 90:
				op = opDelete
			case p >= 80:
				op = opInsert
			}
			ring[i] = op<<libOpKeyBits | uint32((x>>32)%uint64(n))
		}
		workers[w] = &libWorker{ring: ring}
		if traced {
			workers[w].reqLog = newSpanLog(cfg.size.spanCap)
			workers[w].calls = newSpanLog(cfg.size.spanCap)
		}
	}

	// Set-up: build the store and prefill it, several times; the last
	// store is the one measured.
	runtime.GC()
	live0 := heapLive()
	var store *lockfree.ShardedSkipList[int, string]
	var tel *ltel.Telemetry
	var setups []float64
	for i := 0; i < min(cfg.size.setups, libSetups); i++ {
		if store != nil {
			tel.Unregister()
			store, tel = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		store, tel = newStore()
		var wg sync.WaitGroup
		for w := 0; w < libWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < len(prefill); j += libWorkers {
					k := prefill[j]
					store.Insert(k, vals[k%libValues])
				}
			}(w)
		}
		wg.Wait()
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { tel.Unregister() }()
	r.setupS = median(setups)
	if got := store.Len(); got != len(prefill) {
		r.fail("after prefill Len() = %d, want %d", got, len(prefill))
	}
	runtime.GC()
	r.memPerKey = float64(heapLive()-live0) / float64(store.Len())

	// The window, after a warm-up. The process's CPU clock is read at
	// every part boundary, the counters at the window's edges.
	parts := windowParts(cfg.window)
	cpu := make([]time.Duration, parts+1)
	start := nanotime() + int64(cfg.size.warmup)
	var loops []func(start, end int64)
	for w, wk := range workers {
		wk.rec = newWindowRec(start, cfg.window)
		loops = append(loops, func(start, end int64) { wk.run(store, vals, int32(w), start, end) })
	}
	var tel0 ltel.Snapshot
	var rt0 rtSample
	steal := runWindow(start, loops, cfg.window, func(i int) {
		cpu[i] = selfCPU()
		if i == 0 {
			tel0, rt0 = tel.Snapshot(), readRuntime()
		}
	})
	tel1, rt1 := tel.Snapshot(), readRuntime()

	var recs []*windowRec
	var total, ins, del uint64
	for _, wk := range workers {
		recs = append(recs, wk.rec)
		total += wk.total
		ins += wk.ins
		del += wk.del
		r.failed += wk.bad
	}
	if r.failed > 0 {
		r.fail("Get returned a value the key was never given (%d times)", r.failed)
	}
	st := summarize(recs, cpu, steal)
	reportWindow(cfg.out, st)
	ops := st.ops
	r.attempted, r.samples = ops, st.samples
	r.throughput, r.p50us, r.p99us, r.cpuUSPerOp = st.throughput, st.p50us, st.p99us, st.cpuUSPerOp

	// Checks: the count adds up and an ordered scan is ordered.
	if want, got := len(prefill)+int(ins)-int(del), store.Len(); got != want {
		r.fail("Len() = %d, want prefill %d + inserts %d - deletes %d = %d", got, len(prefill), ins, del, want)
	}
	prev, wrong := -1, 0
	store.Ascend(func(k int, v string) bool {
		if k <= prev {
			r.fail("Ascend not strictly increasing: %d after %d", k, prev)
			return false
		}
		if v != vals[k%libValues] {
			wrong++
		}
		prev = k
		return true
	})
	if wrong > 0 {
		r.fail("Ascend saw %d keys with a value they were never given", wrong)
	}

	// recovery_s: restore the final state from a snapshot into a fresh
	// store, as lflserver does on boot.
	snapDir := filepath.Join(cfg.workDir, fmt.Sprintf("lib-snapshot-%d", os.Getpid()))
	defer os.RemoveAll(snapDir)
	if _, _, err := snapshot.Write(snapDir, 0, func(fn func(int64, string) bool) {
		store.Ascend(func(k int, v string) bool { return fn(int64(k), v) })
	}, nil); err != nil {
		return nil, nil, fmt.Errorf("snapshot write: %w", err)
	}
	var layers map[string]float64
	if traced {
		layers = libLayers(workers, float64(ops), tel0, tel1, rt0, rt1)
		if err := writeSpans(filepath.Join(cfg.workDir, "trace-lib-mixed.tsv"), spanLogs(workers)...); err != nil {
			return nil, nil, err
		}
	}
	wantLen := store.Len()
	store = nil
	var restores []float64
	for i := 0; i < libRestores; i++ {
		runtime.GC()
		fresh, ftel := newStore()
		t0 := time.Now()
		_, keys, err := snapshot.Restore(snapDir, func(k int64, v string) bool { return fresh.Insert(int(k), v) })
		restores = append(restores, time.Since(t0).Seconds())
		ftel.Unregister()
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot restore: %w", err)
		}
		if keys != wantLen || fresh.Len() != wantLen {
			r.fail("restore gave %d keys (Len %d), want %d", keys, fresh.Len(), wantLen)
		}
	}
	r.recoveryS = median(restores)
	fmt.Fprintf(cfg.out, "lib-mixed: %d keys, %d prefilled, %d ops (%d with warm-up), %d inserted, %d deleted, final Len %d\n",
		n, len(prefill), ops, total, ins, del, wantLen)
	return r, layers, nil
}

// run is one worker's closed loop. Untraced, a call is timed by the two
// clock reads around it; traced, a third read opens the loop iteration,
// so the request span (iteration) and the store span (call) differ by the
// loop's own work.
func (wk *libWorker) run(store *lockfree.ShardedSkipList[int, string], vals []string, id int32, start, end int64) {
	mask := uint32(1)<<libOpKeyBits - 1
	for i := 0; ; i++ {
		t0 := nanotime()
		if t0 >= end {
			return
		}
		op := wk.ring[i&(libRingLen-1)]
		k := int(op & mask)
		tc := t0
		if wk.calls != nil {
			tc = nanotime()
		}
		switch op >> libOpKeyBits {
		case opGet:
			if v, ok := store.Get(k); ok && v != vals[k%libValues] {
				wk.bad++
			}
		case opInsert:
			if store.Insert(k, vals[k%libValues]) {
				wk.ins++
			}
		default:
			if store.Delete(k) {
				wk.del++
			}
		}
		t1 := nanotime()
		wk.total++
		if t0 < start {
			continue
		}
		part := wk.rec.index(t0)
		wk.rec.ops[part]++
		wk.rec.hists[part].record(t1 - tc)
		if wk.calls != nil {
			wk.reqLog.add(span{start: t0, end: t1, conn: id, kind: spanReq, n: 1})
			wk.calls.add(span{start: tc, end: t1, conn: id, kind: spanStore, n: 1})
		}
	}
}

func spanLogs(ws []*libWorker) []*spanLog {
	var ls []*spanLog
	for _, w := range ws {
		ls = append(ls, w.reqLog, w.calls)
	}
	return ls
}

// libLayers computes lib-mixed's per-layer row. There is no client
// process, server or log on this workload, so those rows are 0.
func libLayers(ws []*libWorker, ops float64, tel0, tel1 ltel.Snapshot, rt0, rt1 rtSample) map[string]float64 {
	out := map[string]float64{}
	zeroLayers(out, "client", "server", "wal")
	var calls hist
	var storeNs, reqNs int64
	for _, w := range ws {
		for _, s := range w.calls.spans {
			calls.record(s.end - s.start)
			storeNs += s.end - s.start
		}
		for _, s := range w.reqLog.spans {
			reqNs += s.end - s.start
		}
	}
	out["store.call_ns_p50"] = calls.quantile(0.50)
	out["store.call_ns_p99"] = calls.quantile(0.99)
	out["store.ns_per_key"] = calls.mean()
	out["store.busy_share"] = float64(storeNs) / float64(reqNs)
	coreLayers(tel0, tel1, ops, out)
	runtimeLayers(rt0, rt1, ops, out)
	return out
}
