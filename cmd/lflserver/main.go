// Command lflserver serves the range-sharded lock-free skip list as a
// networked ordered key-value store, speaking two wire dialects on the
// same port: the line protocol documented in internal/server
// (SET/GET/DEL/RANGE/LEN/PING) and RESP2, the Redis protocol, so
// redis-cli and redis-benchmark work out of the box. The dialect is
// auto-detected per connection from the first byte ('*' opens a RESP
// array). Each connection's pipelined command runs are coalesced into
// sorted batch calls through the finger machinery, so the amortized
// clustered-access bounds of DESIGN.md Sections 8 and 9 carry over to
// network traffic — on either dialect — and replies go back in one
// vectored write per run over a zero-allocation reply path.
//
// Usage:
//
//	lflserver [-addr 127.0.0.1:7379] [-admin-addr HOST:PORT] [-pprof]
//	          [-shards 4] [-key-lo 0] [-key-hi 1048576]
//	          [-max-conns 1024] [-max-batch 256] [-max-range 4096]
//	          [-trace-sample 64] [-trace-cap 1024] [-slow-ms 10]
//	          [-groupbatch] [-group-executors 0] [-group-window 50us]
//	          [-idle-timeout 5m] [-drain-timeout 10s]
//	          [-wal-dir DIR] [-wal-mode async|sync] [-fsync-window 2ms]
//	          [-snapshot-every 0]
//
// -wal-dir enables durability: every applied SET/DEL is published to an
// append-only write-ahead log in DIR (a lock-free hand-off ring feeds a
// single fsync'ing writer; the serving hot path stays 0-alloc), and on
// boot the store recovers from the newest valid snapshot in DIR plus the
// WAL tail. -wal-mode async acks before the fsync (a crash may lose the
// last -fsync-window of acked writes); sync holds each reply flush until
// the run's mutations are durable, so an acked write survives SIGKILL.
// -snapshot-every streams a fuzzy snapshot (DESIGN.md §13) to DIR at
// that cadence and prunes WAL segments the snapshot covers.
//
// -groupbatch switches execution to cross-connection group batching:
// connections publish parsed commands into per-shard lock-free
// submission rings and a pool of executors (-group-executors, default
// one per shard) merges them into sorted store batches, closing each
// group at -max-batch units or after -group-window. The win regime is
// many connections at shallow pipeline depth, where per-connection
// coalescing cannot fire; see README "Group batching".
//
// With -admin-addr, an observability listener serves Prometheus /metrics
// (store and connection counters, per-verb latency histograms, and the
// runtime/metrics bridge), expvar /debug/vars, the sampled-operation ring
// at /debug/trace, and the /healthz and /readyz probes; /readyz starts
// failing the moment shutdown begins. -pprof additionally mounts
// net/http/pprof under /debug/pprof/ — opt-in because profiles can stall
// the process and leak internals. SIGINT or SIGTERM triggers a graceful
// drain: the server stops accepting, serves commands already on the wire,
// and exits once every connection has flushed — or after -drain-timeout,
// whichever comes first.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/instrument"
	"repro/internal/obshttp"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/wal"
	"repro/lockfree"
	ltel "repro/lockfree/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lflserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lflserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7379", "TCP listen address for the line protocol")
	adminAddr := fs.String("admin-addr", "", "serve /metrics, /debug/vars, /healthz, /readyz on this address")
	shards := fs.Int("shards", 4, "skip-list shards (a power of two); 1 = unsharded")
	keyLo := fs.Int("key-lo", 0, "lower bound of the expected key range (shard splitter placement)")
	keyHi := fs.Int("key-hi", 1<<20, "upper bound of the expected key range (shard splitter placement)")
	maxConns := fs.Int("max-conns", 1024, "connection cap; excess connections are shed at accept time")
	maxBatch := fs.Int("max-batch", 256, "max pipelined commands coalesced into one batch call")
	maxRange := fs.Int("max-range", 4096, "max pairs one RANGE may return")
	idle := fs.Duration("idle-timeout", 5*time.Minute, "close connections idle this long")
	drain := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline on SIGINT/SIGTERM")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof on the admin listener (requires -admin-addr)")
	traceSample := fs.Int("trace-sample", 64, "trace every Nth command unit (a power of two; 1 = every unit)")
	traceCap := fs.Int("trace-cap", 1024, "capacity of the sampled-operation trace ring")
	slowMS := fs.Int("slow-ms", 10, "always trace command units whose store execution exceeds this many milliseconds")
	groupBatch := fs.Bool("groupbatch", false, "merge commands across connections into group batches (per-shard submission rings)")
	groupExecutors := fs.Int("group-executors", 0, "cap the group-batching executor pool (0 = one per shard)")
	groupWindow := fs.Duration("group-window", 50*time.Microsecond, "group-batching gather window (close a group at max-batch units or this age)")
	walDir := fs.String("wal-dir", "", "enable durability: WAL segments and snapshots live in this directory")
	walMode := fs.String("wal-mode", "async", "with -wal-dir: async (ack before fsync) or sync (hold acks for fsync)")
	fsyncWindow := fs.Duration("fsync-window", 2*time.Millisecond, "WAL group-commit window; 0 fsyncs every writer batch")
	snapshotEvery := fs.Duration("snapshot-every", 0, "write a fuzzy snapshot and prune the WAL at this cadence (0 = never)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 || *shards&(*shards-1) != 0 {
		return fmt.Errorf("-shards %d: shard count must be a power of two", *shards)
	}
	if *keyHi <= *keyLo {
		return fmt.Errorf("-key-hi %d must exceed -key-lo %d", *keyHi, *keyLo)
	}

	// Exact recording: a server wants complete counters on its admin
	// endpoint, not a sampled estimate.
	tel := ltel.New("lflserver", ltel.WithSampleEvery(1)).PublishExpvar()
	defer tel.Unregister()

	var store server.Store
	if *shards > 1 {
		store = lockfree.NewShardedSkipList[int, string](
			lockfree.EqualSplitters(*keyLo, *keyHi, *shards), lockfree.WithTelemetry(tel))
	} else {
		store = lockfree.NewSkipList[int, string](lockfree.WithTelemetry(tel))
	}

	// Durability: recover snapshot + WAL tail before serving, then hand
	// the open log to the server for publish-at-reply-site logging.
	durability := server.DurabilityOff
	var walLog *wal.Log
	if *walDir != "" {
		switch *walMode {
		case "async":
			durability = server.DurabilityAsync
		case "sync":
			durability = server.DurabilitySync
		default:
			return fmt.Errorf("-wal-mode %q: want async or sync", *walMode)
		}
		start := time.Now()
		snapLSN, snapKeys, err := snapshot.Restore(*walDir, func(k int64, v string) bool {
			return store.Insert(int(k), v)
		})
		if err != nil && !errors.Is(err, snapshot.ErrNoSnapshot) {
			return fmt.Errorf("snapshot restore: %w", err)
		}
		walLog, err = wal.Open(wal.Options{Dir: *walDir, FsyncWindow: *fsyncWindow, Telemetry: tel.Recorder()})
		if err != nil {
			return fmt.Errorf("wal open: %w", err)
		}
		defer walLog.Close()
		replayed, err := walLog.Replay(snapLSN, func(op wal.Op, seq uint64, key int64, val []byte) error {
			switch op {
			case wal.OpSet:
				store.Insert(int(key), string(val))
			case wal.OpDel:
				store.Delete(int(key))
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		fmt.Printf("lflserver: recovered %d snapshot keys (LSN %d) + %d WAL records in %v\n",
			snapKeys, snapLSN, replayed, time.Since(start).Round(time.Millisecond))
	}

	srv := server.New(server.Config{
		Addr:           *addr,
		MaxConns:       *maxConns,
		MaxBatch:       *maxBatch,
		MaxRange:       *maxRange,
		ReadTimeout:    *idle,
		GroupBatch:     *groupBatch,
		GroupExecutors: *groupExecutors,
		BatchWindow:    *groupWindow,
		Durability:     durability,
		WAL:            walLog,
	}, store)
	srv.SetTelemetry(tel.Recorder())

	obs := server.NewObs(server.ObsConfig{
		SampleEvery:   *traceSample,
		TraceCap:      *traceCap,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
	})
	srv.SetObs(obs)

	if *snapshotEvery > 0 {
		if walLog == nil {
			return fmt.Errorf("-snapshot-every needs -wal-dir")
		}
		asc, ok := store.(interface {
			Ascend(fn func(key int, value string) bool)
		})
		if !ok {
			return fmt.Errorf("store %T cannot stream snapshots (no Ascend)", store)
		}
		stopSnap := make(chan struct{})
		defer close(stopSnap)
		go func() {
			tick := time.NewTicker(*snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopSnap:
					return
				case <-tick.C:
				}
				// Stamp with the LSN current at scan start: every record
				// published before it was applied before the scan, and the
				// replay of anything newer is idempotent (DESIGN.md §13).
				lsn := walLog.LastLSN()
				keys, _, err := snapshot.Write(*walDir, lsn, func(fn func(key int64, val string) bool) {
					asc.Ascend(func(k int, v string) bool { return fn(int64(k), v) })
				}, tel.Recorder())
				if err != nil {
					fmt.Fprintln(os.Stderr, "lflserver: snapshot:", err)
					continue
				}
				if err := snapshot.Prune(*walDir, 2); err != nil {
					fmt.Fprintln(os.Stderr, "lflserver: snapshot prune:", err)
				}
				// Prune the WAL only up to the *oldest retained* snapshot's
				// stamp: if the newest image later fails its CRC, Restore
				// falls back to the older one, which needs every record in
				// (olderLSN, newestLSN] still on disk to replay without a gap.
				if keep := snapshot.Oldest(*walDir); keep > 0 {
					if err := walLog.Prune(keep); err != nil {
						fmt.Fprintln(os.Stderr, "lflserver: wal prune:", err)
					}
				}
				fmt.Printf("lflserver: snapshot at LSN %d (%d keys)\n", lsn, keys)
			}
		}()
	}

	// Take over SIGINT/SIGTERM before anything can answer a client: a
	// signal that arrives once the listeners are up must drain, not kill
	// the process with acknowledged writes still in the WAL ring.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

	shutdowners := []server.Shutdowner{srv}
	if *adminAddr != "" {
		// One scrape answers the full latency question: the store's own
		// counters, the serving layer's per-verb histograms, and the
		// runtime signals (GC pauses, scheduler latency) that explain
		// tail spikes the structures cannot.
		ltel.RegisterCollector("lflserver-obs", obs.WritePrometheus)
		ltel.RegisterRuntimeCollector()
		if walLog != nil {
			ltel.RegisterCollector("lflserver-wal", walFsyncCollector(walLog))
		}
		opts := []obshttp.Option{obshttp.WithHandler("/debug/trace", obs.TraceHandler())}
		if *pprofOn {
			opts = append(opts, obshttp.WithPprof())
		}
		admin, err := obshttp.ServeAdmin(*adminAddr, srv.Healthy, srv.Ready, opts...)
		if err != nil {
			return err
		}
		shutdowners = append(shutdowners, admin)
		fmt.Printf("lflserver: admin endpoints on http://%s\n", admin.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	// ListenAndServe binds before blocking in Accept, so poll briefly for
	// the bound address; a bind failure surfaces on errc instead.
	for i := 0; srv.Addr() == "" && i < 100; i++ {
		select {
		case err := <-errc:
			return err
		case <-time.After(time.Millisecond):
		}
	}
	fmt.Printf("lflserver: serving %d-shard store on %s (keys [%d, %d))\n",
		*shards, srv.Addr(), *keyLo, *keyHi)

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("lflserver: %v, draining (deadline %v)\n", s, *drain)
		if err := server.GracefulShutdown(*drain, shutdowners...); err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		fmt.Println("lflserver: drained cleanly")
		return nil
	}
}

// walFsyncCollector renders the WAL's fsync-latency histogram as a
// Prometheus series on the shared /metrics endpoint, in the same octave
// bucketing as the serving layer's latency histograms.
func walFsyncCollector(l *wal.Log) ltel.Collector {
	return func(w io.Writer) error {
		s := l.FsyncLatency()
		bounds := instrument.OctaveBounds()
		oct := s.Octaves()
		var b strings.Builder
		b.WriteString("# HELP lockfree_wal_fsync_seconds Write-ahead-log group-commit fsync latency.\n")
		b.WriteString("# TYPE lockfree_wal_fsync_seconds histogram\n")
		last := -1
		for i := 0; i < len(oct)-1; i++ {
			if oct[i] != 0 {
				last = i
			}
		}
		var cum uint64
		for i := 0; i <= last; i++ {
			cum += oct[i]
			le := strconv.FormatFloat(float64(bounds[i])/1e9, 'g', -1, 64)
			b.WriteString("lockfree_wal_fsync_seconds_bucket{le=\"" + le + "\"} " + strconv.FormatUint(cum, 10) + "\n")
		}
		cum += oct[len(oct)-1]
		b.WriteString("lockfree_wal_fsync_seconds_bucket{le=\"+Inf\"} " + strconv.FormatUint(cum, 10) + "\n")
		b.WriteString("lockfree_wal_fsync_seconds_sum " + strconv.FormatFloat(float64(s.Sum)/1e9, 'g', -1, 64) + "\n")
		b.WriteString("lockfree_wal_fsync_seconds_count " + strconv.FormatUint(s.Count, 10) + "\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
}
