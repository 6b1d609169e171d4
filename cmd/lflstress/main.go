// Command lflstress hammers a chosen implementation with a concurrent
// workload, records the full operation history, and checks it for
// linearizability (the correctness condition of the paper's Section 3.3).
// It also validates structural invariants in the quiescent end state.
//
// Usage:
//
//	lflstress [-impl fr-skiplist] [-threads 8] [-ops 2000] [-keys 16]
//	          [-rounds 20] [-seed 1] [-batch N] [-shards S]
//	          [-server ADDR|self] [-groupbatch]
//	          [-telemetry-addr HOST:PORT] [-telemetry-every 5]
//
// With -server, lflstress becomes a network client: every worker opens its
// own TCP connection to a lflserver and issues its operations as pipelined
// runs (depth -batch, default 16), and every response is still checked for
// linearizability — the serving layer, like sharding, must be invisible to
// the checker. -server self starts a fresh in-process server per round
// (sharded by -shards, default 4) and additionally asserts that graceful
// shutdown drains with zero dropped in-flight responses. -groupbatch runs
// the self-mode servers in cross-connection group-batching mode, so the
// checker validates histories whose commands were merged and re-sorted
// across connections by the executor pool.
//
// With -shards S (a power of two), the fr-skiplist implementation runs
// behind the range-sharded map: the key space [0, keys) is split across S
// skip-list shards with evenly spaced splitters, and every checked
// operation — point or batch — routes through the splitter layer. The
// history checker is unchanged: sharding must be invisible to
// linearizability, which is exactly what the run verifies.
//
// With -telemetry-addr, the fr-list and fr-skiplist implementations run
// with the live telemetry layer attached (exact recording, sampling
// period 1) and the Prometheus /metrics and expvar /debug/vars endpoints
// are served for the duration of the run; a per-interval delta summary is
// printed every -telemetry-every rounds.
//
// With -killrecover, lflstress becomes a crash-durability stress: it
// re-execs itself as a wal-sync lflserver-equivalent child over a fresh
// WAL directory, hammers it with pipelined SET/DEL bursts over disjoint
// per-worker key spans, SIGKILLs it mid-burst, restarts it from the same
// directory, and verifies every key against a per-key admissibility
// model — every client-acked write must survive, and unacked in-flight
// suffixes may have applied any prefix. -batch sets the pipeline depth.
//
// With -batch N, workers issue their operations as sorted N-key batches
// through the finger-threaded batch API instead of one key at a time.
// Every batch element is still recorded and history-checked individually;
// with telemetry attached, the delta summary reports the finger hit rate.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harris"
	"repro/internal/history"
	"repro/internal/noflag"
	"repro/internal/obshttp"
	"repro/internal/server"
	"repro/internal/sharded"
	"repro/internal/sundell"
	"repro/internal/valois"
	"repro/lockfree"
	ltel "repro/lockfree/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lflstress:", err)
		os.Exit(1)
	}
}

// checked is the minimal interface the stress driver needs; results are
// booleans so the history checker can validate them.
type checked interface {
	insert(k int) bool
	remove(k int) bool
	search(k int) bool
	validate() error
}

// batchChecked is the subset of implementations whose batch API the
// -batch mode can drive; only the primary structures have one.
type batchChecked interface {
	checked
	insertBatch(keys []int, res []bool)
	removeBatch(keys []int, res []bool)
	searchBatch(keys []int, res []bool)
}

type frList struct{ l *core.List[int, int] }

func (d frList) insert(k int) bool { _, ok := d.l.Insert(nil, k, k); return ok }
func (d frList) remove(k int) bool { _, ok := d.l.Delete(nil, k); return ok }
func (d frList) search(k int) bool { return d.l.Search(nil, k) != nil }
func (d frList) validate() error   { return d.l.CheckInvariants() }

func (d frList) insertBatch(keys []int, res []bool) {
	d.l.InsertBatch(nil, kvs(keys), res)
}
func (d frList) removeBatch(keys []int, res []bool) { d.l.DeleteBatch(nil, keys, res) }
func (d frList) searchBatch(keys []int, res []bool) { d.l.GetBatch(nil, keys, nil, res) }

type frSkip struct{ l *core.SkipList[int, int] }

func (d frSkip) insert(k int) bool { _, ok := d.l.Insert(nil, k, k); return ok }
func (d frSkip) remove(k int) bool { _, ok := d.l.Delete(nil, k); return ok }
func (d frSkip) search(k int) bool { return d.l.Search(nil, k) != nil }
func (d frSkip) validate() error   { return d.l.CheckStructure() }

func (d frSkip) insertBatch(keys []int, res []bool) {
	d.l.InsertBatch(nil, kvs(keys), res)
}
func (d frSkip) removeBatch(keys []int, res []bool) { d.l.DeleteBatch(nil, keys, res) }
func (d frSkip) searchBatch(keys []int, res []bool) { d.l.GetBatch(nil, keys, nil, res) }

type frSharded struct{ m *sharded.Map[int, int] }

func (d frSharded) insert(k int) bool { _, ok := d.m.Insert(nil, k, k); return ok }
func (d frSharded) remove(k int) bool { _, ok := d.m.Delete(nil, k); return ok }
func (d frSharded) search(k int) bool { return d.m.Search(nil, k) != nil }
func (d frSharded) validate() error   { return d.m.CheckStructure() }

func (d frSharded) insertBatch(keys []int, res []bool) {
	d.m.InsertBatch(nil, kvs(keys), res)
}
func (d frSharded) removeBatch(keys []int, res []bool) { d.m.DeleteBatch(nil, keys, res) }
func (d frSharded) searchBatch(keys []int, res []bool) { d.m.GetBatch(nil, keys, nil, res) }

func kvs(keys []int) []core.KV[int, int] {
	items := make([]core.KV[int, int], len(keys))
	for i, k := range keys {
		items[i] = core.KV[int, int]{Key: k, Value: k}
	}
	return items
}

type harrisList struct{ l *harris.List[int, int] }

func (d harrisList) insert(k int) bool { _, ok := d.l.Insert(nil, k, k); return ok }
func (d harrisList) remove(k int) bool { _, ok := d.l.Delete(nil, k); return ok }
func (d harrisList) search(k int) bool { return d.l.Search(nil, k) != nil }
func (d harrisList) validate() error   { return d.l.CheckInvariants() }

type harrisSkip struct{ l *harris.SkipList[int, int] }

func (d harrisSkip) insert(k int) bool { return d.l.Insert(nil, k, k) }
func (d harrisSkip) remove(k int) bool { return d.l.Delete(nil, k) }
func (d harrisSkip) search(k int) bool { return d.l.Contains(nil, k) }
func (d harrisSkip) validate() error   { return d.l.CheckStructure() }

type valoisList struct{ l *valois.List[int, int] }

func (d valoisList) insert(k int) bool { return d.l.Insert(nil, k, k) }
func (d valoisList) remove(k int) bool { return d.l.Delete(nil, k) }
func (d valoisList) search(k int) bool { return d.l.Contains(nil, k) }
func (d valoisList) validate() error   { return d.l.CheckInvariants() }

type sundellSkip struct{ l *sundell.SkipList[int, int] }

func (d sundellSkip) insert(k int) bool { return d.l.Insert(nil, k, k) }
func (d sundellSkip) remove(k int) bool { return d.l.Delete(nil, k) }
func (d sundellSkip) search(k int) bool { return d.l.Contains(nil, k) }
func (d sundellSkip) validate() error   { return nil }

type noflagList struct{ l *noflag.List[int, int] }

func (d noflagList) insert(k int) bool { _, ok := d.l.Insert(nil, k, k); return ok }
func (d noflagList) remove(k int) bool { _, ok := d.l.Delete(nil, k); return ok }
func (d noflagList) search(k int) bool { return d.l.Search(nil, k) != nil }
func (d noflagList) validate() error   { return nil }

// recycleChecked is the optional interface of implementations that can
// run with EBR-backed node recycling: the -recycle rounds drain their
// domains at round end and report how many node identities were reused —
// the histories the checker just validated really did contain repeats.
type recycleChecked interface {
	forceReclaim()
	recycleCounts() (recycled, dropped uint64)
}

func (d frList) forceReclaim() {
	for i := 0; i < 6; i++ {
		d.l.ForceReclaim(nil)
	}
}
func (d frList) recycleCounts() (uint64, uint64) { return d.l.RecycleCounts() }

func (d frSkip) forceReclaim() {
	for i := 0; i < 6; i++ {
		d.l.ForceReclaim(nil)
	}
}
func (d frSkip) recycleCounts() (uint64, uint64) { return d.l.RecycleCounts() }

func (d frSharded) forceReclaim() {
	for i := 0; i < 6; i++ {
		for s := 0; s < d.m.Shards(); s++ {
			d.m.Shard(s).ForceReclaim(nil)
		}
	}
}

func (d frSharded) recycleCounts() (recycled, dropped uint64) {
	for s := 0; s < d.m.Shards(); s++ {
		r, dr := d.m.Shard(s).RecycleCounts()
		recycled += r
		dropped += dr
	}
	return recycled, dropped
}

// newChecked builds the implementation under test. The primary structures
// accept an optional telemetry instance (nil for none); the baselines have
// no telemetry seam, so the flag only affects fr-list and fr-skiplist.
// shards > 0 runs fr-skiplist behind the range-sharded map, splitting the
// key space [0, keyRange) evenly across that many skip-list shards.
// recycle enables EBR-backed node recycling on the fr-* structures, so the
// linearizability check runs over histories where node identities repeat.
func newChecked(impl string, shards, keyRange int, recycle bool, tel *ltel.Telemetry) (checked, error) {
	if recycle && impl != "fr-list" && impl != "fr-skiplist" {
		return nil, fmt.Errorf("-recycle applies only to fr-list and fr-skiplist, not %q", impl)
	}
	if shards > 0 {
		if impl != "fr-skiplist" {
			return nil, fmt.Errorf("-shards applies only to fr-skiplist, not %q", impl)
		}
		if shards&(shards-1) != 0 {
			return nil, fmt.Errorf("-shards %d: shard count must be a power of two", shards)
		}
		var coreOpts []core.SkipListOption
		if recycle {
			coreOpts = append(coreOpts, core.WithRecycling())
		}
		m := sharded.New[int, int](lockfree.EqualSplitters(0, keyRange, shards), coreOpts...)
		if tel != nil {
			m.SetTelemetry(tel.Recorder())
		}
		return frSharded{m}, nil
	}
	switch impl {
	case "fr-list":
		l := core.NewList[int, int]()
		if recycle {
			l.EnableRecycling()
		}
		if tel != nil {
			l.SetTelemetry(tel.Recorder())
		}
		return frList{l}, nil
	case "fr-skiplist":
		var coreOpts []core.SkipListOption
		if recycle {
			coreOpts = append(coreOpts, core.WithRecycling())
		}
		l := core.NewSkipList[int, int](coreOpts...)
		if tel != nil {
			l.SetTelemetry(tel.Recorder())
		}
		return frSkip{l}, nil
	case "harris-list":
		return harrisList{harris.NewList[int, int]()}, nil
	case "harris-skiplist":
		return harrisSkip{harris.NewSkipList[int, int](0, nil)}, nil
	case "valois-list":
		return valoisList{valois.NewList[int, int]()}, nil
	case "noflag-list":
		return noflagList{noflag.NewList[int, int]()}, nil
	case "sundell-skiplist":
		return sundellSkip{sundell.New[int, int](0, nil)}, nil
	default:
		return nil, fmt.Errorf("unknown -impl %q", impl)
	}
}

// denseReruns bounds how many times an in-process round is rerun on a
// fresh seed when its history is too dense for the checker. Density comes
// from scheduling (a worker descheduled inside an operation overlaps every
// other operation on that key), so a rerun usually checks; only checked
// rounds count towards the run's totals and its -recycle reuse assertion.
const denseReruns = 3

// roundSeed is the seed of one run of a round: -seed plus the round, as
// for every round that is not rerun, and a disjoint seed per rerun. A
// round run on seed s is replayed by `-seed s -rounds 1`.
func roundSeed(seed uint64, round, rerun int) uint64 {
	return seed + uint64(round) + uint64(rerun)<<32
}

func run(args []string) error {
	fs := flag.NewFlagSet("lflstress", flag.ContinueOnError)
	impl := fs.String("impl", "fr-skiplist", "implementation: fr-list, fr-skiplist, harris-list, harris-skiplist, sundell-skiplist, valois-list, noflag-list")
	threads := fs.Int("threads", 8, "concurrent workers")
	ops := fs.Int("ops", 2000, "operations per worker per round")
	keys := fs.Int("keys", 16, "key-space size (small = high contention)")
	rounds := fs.Int("rounds", 20, "independent rounds")
	seed := fs.Uint64("seed", 1, "base random seed")
	batch := fs.Int("batch", 0, "issue operations as sorted N-key batches through the finger-threaded batch API (fr-list/fr-skiplist only); every element is still history-checked, so raise -keys to keep per-key segments under the checker limit")
	shards := fs.Int("shards", 0, "run fr-skiplist behind the range-sharded map with this many shards (a power of two); 0 = unsharded")
	recycle := fs.Bool("recycle", false, "enable EBR-backed node recycling on the fr-* structures (and the -server self store): histories are then checked with node identities repeating")
	srvAddr := fs.String("server", "", "drive a lflserver over TCP at this address instead of an in-process structure; \"self\" starts and gracefully drains an in-process server each round")
	groupBatch := fs.Bool("groupbatch", false, "run the -server self rounds in cross-connection group-batching mode; the history checker is unchanged — grouped execution must be invisible to linearizability")
	telAddr := fs.String("telemetry-addr", "", "serve /metrics and /debug/vars on this address; attaches telemetry to fr-* impls")
	telEvery := fs.Int("telemetry-every", 5, "print a telemetry delta summary every N rounds (with -telemetry-addr)")
	killRecover := fs.Bool("killrecover", false, "run kill-and-recover rounds: re-exec this binary as a wal-sync child server, SIGKILL it mid-burst, restart it from the same WAL directory, and verify every client-acked write survived")
	childServer := fs.Bool("child-server", false, "internal: run as the -killrecover child server (recover from -wal-dir, serve wal-sync, print the address)")
	childWALDir := fs.String("wal-dir", "", "internal: WAL directory for -child-server")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *childServer {
		return runChildServer(*childWALDir)
	}
	if *killRecover {
		return runKillRecover(*threads, *ops, *keys, *rounds, *seed, *batch)
	}

	var tel *ltel.Telemetry
	if *telAddr != "" {
		// Exact recording: a stress run wants complete histograms, not a
		// sampled estimate.
		tel = ltel.New("lflstress", ltel.WithSampleEvery(1)).PublishExpvar()
		defer tel.Unregister()
		admin, err := obshttp.ServeAdmin(*telAddr, nil, nil)
		if err != nil {
			return err
		}
		// Same drain path as the protocol listener in lflserver: in-flight
		// scrapes finish before the process exits.
		defer server.GracefulShutdown(2*time.Second, admin)
		fmt.Printf("telemetry: serving /metrics and /debug/vars on http://%s\n", admin.Addr())
	}

	if *srvAddr != "" {
		return runServerMode(*srvAddr, *threads, *ops, *keys, *rounds, *seed,
			*batch, *shards, *recycle, *groupBatch, tel, *telEvery)
	}
	if *groupBatch {
		return fmt.Errorf("-groupbatch requires -server self (it configures the served execution mode)")
	}

	totalOps := 0
	var totalRecycled, totalDropped uint64
	reruns := 0 // of the current round (see denseReruns)
	for round := 0; round < *rounds; round++ {
		rseed := roundSeed(*seed, round, reruns)
		d, err := newChecked(*impl, *shards, *keys, *recycle, tel)
		if err != nil {
			return err
		}
		if *batch > 0 {
			if _, ok := d.(batchChecked); !ok {
				return fmt.Errorf("-batch requires an implementation with a batch API; %q has none", *impl)
			}
		}
		rec := history.NewRecorder(*threads, *ops)
		var wg sync.WaitGroup
		for w := 0; w < *threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := rec.Thread(w)
				rng := rand.New(rand.NewPCG(rseed, uint64(w)))
				if *batch > 0 {
					runBatchWorker(d.(batchChecked), th, rng, *ops, *keys, *batch)
					return
				}
				for i := 0; i < *ops; i++ {
					k := int(rng.Uint64N(uint64(*keys)))
					switch rng.Uint64N(3) {
					case 0:
						o := th.Begin(history.KindInsert, k)
						th.End(o, d.insert(k))
					case 1:
						o := th.Begin(history.KindDelete, k)
						th.End(o, d.remove(k))
					default:
						o := th.Begin(history.KindSearch, k)
						th.End(o, d.search(k))
					}
				}
			}(w)
		}
		wg.Wait()
		if err := d.validate(); err != nil {
			return fmt.Errorf("round %d (seed %d): structural invariant violated: %w", round, rseed, err)
		}
		if err := history.Check(rec.Ops()); err != nil {
			if _, dense := err.(*history.ErrTooDense); dense {
				if reruns < denseReruns {
					fmt.Printf("round %d (seed %d): %v (too dense to check; rerunning on a fresh seed)\n", round, rseed, err)
					reruns++
					round--
					continue
				}
				fmt.Printf("round %d (seed %d): %v (inconclusive; lower -ops or raise -keys)\n", round, rseed, err)
				reruns = 0
				continue
			}
			return fmt.Errorf("round %d (seed %d): %w", round, rseed, err)
		}
		reruns = 0
		totalOps += *threads * *ops
		if *recycle {
			// Quiesce the round's domain and fold in its reuse totals: the
			// histories just checked were produced over recycled identities.
			rc := d.(recycleChecked)
			rc.forceReclaim()
			r, dr := rc.recycleCounts()
			totalRecycled += r
			totalDropped += dr
		}
		if tel != nil && *telEvery > 0 && (round+1)%*telEvery == 0 {
			printTelemetryDelta(round+1, tel.Delta())
		}
	}
	fmt.Printf("ok: %s passed %d rounds, %d checked operations, all histories linearizable\n",
		*impl, *rounds, totalOps)
	if *recycle {
		fmt.Printf("ok: node recycling live during every round: %d node identities reused, %d dropped to GC\n",
			totalRecycled, totalDropped)
		if totalRecycled == 0 {
			return fmt.Errorf("-recycle run reused no node identities; the rounds never exercised reuse (raise -ops or lower -keys)")
		}
	}
	return nil
}

// runBatchWorker is one round's worth of batched operations: sorted
// batches of up to n keys, one operation kind per batch, every element
// recorded individually. The whole batch call sits inside each element's
// [begin, end] interval, so the history check stays sound - each element
// linearizes somewhere inside the batch, which is inside the recorded
// window.
func runBatchWorker(d batchChecked, th *history.Thread, rng *rand.Rand, ops, keyRange, n int) {
	bkeys := make([]int, 0, n)
	pend := make([]history.Op, 0, n)
	res := make([]bool, n)
	for i := 0; i < ops; {
		c := min(n, ops-i)
		bkeys = bkeys[:0]
		for j := 0; j < c; j++ {
			bkeys = append(bkeys, int(rng.Uint64N(uint64(keyRange))))
		}
		// Pre-sorting keeps the recorded ops positionally aligned with the
		// batch results (the batch methods sort their argument in place).
		slices.Sort(bkeys)
		kind := history.Kind(0)
		pend = pend[:0]
		switch rng.Uint64N(3) {
		case 0:
			kind = history.KindInsert
		case 1:
			kind = history.KindDelete
		default:
			kind = history.KindSearch
		}
		for _, k := range bkeys {
			pend = append(pend, th.Begin(kind, k))
		}
		switch kind {
		case history.KindInsert:
			d.insertBatch(bkeys, res[:c])
		case history.KindDelete:
			d.removeBatch(bkeys, res[:c])
		default:
			d.searchBatch(bkeys, res[:c])
		}
		for j, o := range pend {
			th.End(o, res[j])
		}
		i += c
	}
}

// printTelemetryDelta summarizes the live metrics accumulated since the
// previous interval: per-op throughput and latency quantiles plus the
// paper's essential-step counters (Section 3.4 accounting) and, when the
// interval went through fingers, the finger hit rate.
func printTelemetryDelta(round int, s ltel.Snapshot) {
	fmt.Printf("[telemetry] after round %d: ops=%d ess.steps/op=%.1f cas=%d/%d backlinks=%d\n",
		round, s.TotalOps(), s.EssentialStepsPerOp(),
		s.Counters.CASSuccesses, s.Counters.CASAttempts, s.Counters.BacklinkTraversals)
	if probes := s.Counters.FingerHits + s.Counters.FingerMisses; probes > 0 {
		fmt.Printf("[telemetry]   finger hit rate %.1f%% (%d hits / %d probes)\n",
			100*float64(s.Counters.FingerHits)/float64(probes), s.Counters.FingerHits, probes)
	}
	for op := ltel.Op(0); op < ltel.NumOps; op++ {
		o := s.Ops[op]
		if o.Count == 0 {
			continue
		}
		line := fmt.Sprintf("[telemetry]   %-7s n=%-7d mean=%v", op, o.Count, o.MeanLatency())
		if p50, ok := o.LatencyQuantile(0.50); ok {
			line += fmt.Sprintf(" p50=%v", p50)
		}
		if p99, ok := o.LatencyQuantile(0.99); ok {
			line += fmt.Sprintf(" p99=%v", p99)
		}
		fmt.Println(line)
	}
}
