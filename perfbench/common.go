package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/lockfree"
	ltel "repro/lockfree/telemetry"
)

// nanotime is the monotonic clock every span and latency is read from.
func nanotime() int64 { return telemetry.Nanotime() }

// rng is splitmix64: the whole input of a run derives from its seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

var telSeq atomic.Int64

// newStore builds the store exactly as cmd/lflserver does at its default
// flags (-shards 4 -key-lo 0 -key-hi 1048576): a 4-shard skip list with
// telemetry recording every operation.
func newStore() (*lockfree.ShardedSkipList[int, string], *ltel.Telemetry) {
	tel := ltel.New(fmt.Sprintf("perfbench-%d", telSeq.Add(1)), ltel.WithSampleEvery(1))
	return lockfree.NewShardedSkipList[int, string](lockfree.EqualSplitters(0, 1<<20, 4), lockfree.WithTelemetry(tel)), tel
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the user+system CPU time of process pid, all threads,
// from /proc/<pid>/stat (in clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line, 12 and 13 after it.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procRSS returns the resident set size of process pid in bytes.
func procRSS(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// heapLive returns the live heap bytes as of the last completed GC.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtSample is a reading of the runtime signals the repository's
// runtime/metrics bridge (lockfree/telemetry) exports, plus allocation
// counts.
type rtSample struct {
	objects, bytes, cycles uint64
	pauses, sched          *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		objects: s[0].Value.Uint64(),
		bytes:   s[1].Value.Uint64(),
		cycles:  s[2].Value.Uint64(),
		pauses:  s[3].Value.Float64Histogram(),
		sched:   s[4].Value.Float64Histogram(),
	}
}

// histDeltaQuantile returns the q-quantile, in seconds, of the
// observations b holds beyond a (the same runtime histogram read twice),
// as the upper edge of the bucket that holds it; 0 when nothing was
// observed.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range b.Counts {
		cum += float64(b.Counts[i] - a.Counts[i])
		if cum >= rank {
			hi := b.Buckets[i+1]
			if hi > 1e300 {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// runtimeLayers is the runtime row of the per-layer table over ops
// operations between readings a and b.
func runtimeLayers(a, b rtSample, ops float64, out map[string]float64) {
	out["runtime.allocs_per_op"] = float64(b.objects-a.objects) / ops
	out["runtime.alloc_bytes_per_op"] = float64(b.bytes-a.bytes) / ops
	out["runtime.gc_cycles_per_mop"] = float64(b.cycles-a.cycles) * 1e6 / ops
	out["runtime.gc_pause_us_p99"] = histDeltaQuantile(a.pauses, b.pauses, 0.99) * 1e6
	out["runtime.sched_latency_us_p99"] = histDeltaQuantile(a.sched, b.sched, 0.99) * 1e6
}

// coreLayers is the core row: the paper's step counters from the store's
// telemetry, between snapshots a and b, over ops user operations.
func coreLayers(a, b ltel.Snapshot, ops float64, out map[string]float64) {
	d := b.Sub(a).Counters
	out["core.steps_per_op"] = float64(d.CASAttempts+d.BacklinkTraversals+d.NextUpdates+d.CurrUpdates) / ops
	out["core.cas_success_ratio"] = ratio(d.CASSuccesses, d.CASAttempts)
	out["core.backlink_per_kop"] = float64(d.BacklinkTraversals) * 1e3 / ops
	out["core.backoff_per_kop"] = float64(d.BackoffWaits) * 1e3 / ops
	out["core.finger_hit_ratio"] = ratio(d.FingerHits, d.FingerHits+d.FingerMisses)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// zeroLayers sets every per-layer metric of the named layers to 0: the
// workload does not pass through them.
func zeroLayers(out map[string]float64, layers ...string) {
	for _, m := range layerMetrics {
		for _, l := range layers {
			if strings.HasPrefix(m.name, l+".") {
				out[m.name] = 0
			}
		}
	}
}
