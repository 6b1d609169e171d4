// Command perfbench is the repository's end-to-end benchmark: three named
// workloads against the store and the real lflserver binary, every reply
// checked, and a separately traced run that splits the time by layer. It
// is meant to be run through run.py, which first builds this package and
// cmd/lflserver from the same checkout:
//
//	python3 perfbench/run.py --workload served-read-d1 --seed 7 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object; the lines before
// it stamp the environment and the seed and print the numbers for people.
// README.md in this directory says why each workload exists, what it
// bypasses, and what is deliberately not measured.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure with its unit. The tables below must
// name exactly what BENCHMARK.json names; a test holds them equal.
type metric struct{ name, unit string }

var workloads = []string{"lib-mixed", "served-read-d1", "served-write-d16-wal"}

// e2eMetrics are reported with --trace 0, on every workload.
var e2eMetrics = []metric{
	{"setup_s", "s"},
	{"throughput_ops", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"mem_bytes_per_key", "B"},
	{"recovery_s", "s"},
}

// layerMetrics are reported with --trace 1, on every workload; a layer
// the workload does not pass through reports 0.
var layerMetrics = []metric{
	{"client.cpu_us_per_op", "us"},
	{"client.residual_us_p50", "us"},
	{"server.read_calls_per_op", "count"},
	{"server.write_calls_per_op", "count"},
	{"server.io_us_per_op", "us"},
	{"server.self_us_p50", "us"},
	{"server.cmd_us_p50", "us"},
	{"server.cmd_us_p99", "us"},
	{"server.queue_wait_us_p99", "us"},
	{"server.ops_per_store_call", "count"},
	{"store.call_ns_p50", "ns"},
	{"store.call_ns_p99", "ns"},
	{"store.ns_per_key", "ns"},
	{"store.busy_share", "ratio"},
	{"core.steps_per_op", "count"},
	{"core.cas_success_ratio", "ratio"},
	{"core.backlink_per_kop", "count"},
	{"core.backoff_per_kop", "count"},
	{"core.finger_hit_ratio", "ratio"},
	{"wal.appends_per_op", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.fsyncs_per_kop", "count"},
	{"wal.fsync_us_p50", "us"},
	{"wal.fsync_us_p99", "us"},
	{"wal.durable_lag_p99", "count"},
	{"wal.replay_s", "s"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_mop", "count"},
	{"runtime.gc_pause_us_p99", "us"},
	{"runtime.sched_latency_us_p99", "us"},
}

// sizes scales a run. fullSize is the benchmark; tests shrink it.
type sizes struct {
	libKeys    int           // lib-mixed key space
	servedKeys int           // served workloads' key space
	setups     int           // setups per run; setup_s is their median
	restarts   int           // restarts per run; recovery_s is their median
	warmup     time.Duration // unmeasured load before each window
	spanCap    int           // spans kept per span log in a traced run
}

var fullSize = sizes{
	libKeys:    1 << 20,
	servedKeys: 1 << 16,
	setups:     5,
	restarts:   15,
	warmup:     time.Second,
	spanCap:    1 << 20,
}

type config struct {
	workload  string
	seed      uint64
	window    time.Duration
	serverBin string // lflserver binary, for the served workloads
	workDir   string // scratch space for WAL directories, snapshots, traces
	size      sizes
	out       io.Writer // human-readable report lines
}

// e2e holds one measured window's end-to-end figures and its checks.
type e2e struct {
	setupS, throughput, p50us, p99us, cpuUSPerOp, memPerKey, recoveryS float64
	samples                                                            uint64 // latency samples behind the quantiles
	attempted, failed                                                  uint64
	checks                                                             []string // failed correctness checks
}

func (r *e2e) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *e2e) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":           r.setupS,
		"throughput_ops":    r.throughput,
		"latency_p50_us":    r.p50us,
		"latency_p99_us":    r.p99us,
		"cpu_us_per_op":     r.cpuUSPerOp,
		"mem_bytes_per_key": r.memPerKey,
		"recovery_s":        r.recoveryS,
	}
}

// measureFunc runs one workload for one window. With traced false it is
// the end-to-end measurement and records no spans; with traced true it
// also returns the per-layer figures.
type measureFunc func(cfg config, traced bool) (*e2e, map[string]float64, error)

func measureFor(name string) measureFunc {
	switch name {
	case "lib-mixed":
		return measureLib
	case "served-read-d1":
		return func(cfg config, traced bool) (*e2e, map[string]float64, error) {
			return measureServed(cfg, readD1, traced)
		}
	case "served-write-d16-wal":
		return func(cfg config, traced bool) (*e2e, map[string]float64, error) {
			return measureServed(cfg, writeD16WAL, traced)
		}
	}
	return nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		killChildren()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	serverBin := fs.String("server-bin", "", "lflserver binary built from this checkout")
	workDir := fs.String("work-dir", "", "scratch directory for WAL directories, snapshots and traces")
	commit := fs.String("commit", "unknown", "commit (or source digest) under test, stamped into the output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	measure := measureFor(*name)
	switch {
	case measure == nil:
		return fmt.Errorf("-workload %q: want one of %s", *name, strings.Join(workloads, ", "))
	case *seconds < 1:
		return fmt.Errorf("-seconds %d: want at least 1", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case *workDir == "":
		return errors.New("-work-dir is required")
	case *name != "lib-mixed" && *serverBin == "":
		return fmt.Errorf("-workload %s needs -server-bin", *name)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	cfg := config{
		workload:  *name,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		serverBin: *serverBin,
		workDir:   *workDir,
		size:      fullSize,
		out:       stdout,
	}
	stopOnSignal()
	watchdog(170 * time.Second)

	fmt.Fprintf(stdout, "Today's seed is %d. Replay with: --workload %s --seed %d --seconds %d --trace %d\n",
		*seed, *name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "env: %s commit=%s\n", envStamp(*workDir), *commit)

	res, err := runWorkload(cfg, measure, *trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func runWorkload(cfg config, measure measureFunc, traced bool) (*result, error) {
	if !traced {
		r, _, err := measure(cfg, false)
		if err != nil {
			return nil, err
		}
		printE2E(cfg.out, "end-to-end", r, nil)
		return makeResult(r, r.metrics(), e2eMetrics)
	}
	// A traced run splits its seconds: the first half measures untraced,
	// exactly like a --trace 0 run, and the second half traced. Both sets
	// of end-to-end figures are printed side by side, so the tracing (and,
	// for the served workloads, the in-process server) overhead shows.
	half := cfg
	half.window = cfg.window / 2
	half.size.setups, half.size.restarts = 1, 1
	plain, plainLayers, err := measure(half, false)
	if err != nil {
		return nil, err
	}
	tr, layers, err := measure(half, true)
	if err != nil {
		return nil, err
	}
	printE2E(cfg.out, "untraced", plain, tr)
	// The client's CPU is only separable from the server's when they run
	// in different processes, i.e. in the untraced half.
	layers["client.cpu_us_per_op"] = plainLayers["client.cpu_us_per_op"]
	for _, m := range layerMetrics {
		fmt.Fprintf(cfg.out, "layer %-28s %14.4f %s\n", m.name, layers[m.name], m.unit)
	}
	merged := &e2e{attempted: plain.attempted + tr.attempted, failed: plain.failed + tr.failed}
	merged.checks = append(slices.Clip(plain.checks), tr.checks...)
	return makeResult(merged, layers, layerMetrics)
}

func makeResult(r *e2e, vals map[string]float64, want []metric) (*result, error) {
	res := &result{
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]value, len(want)),
	}
	for _, m := range want {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", m.name, v)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	res.Correct = r.failed == 0 && len(r.checks) == 0 && r.attempted > 0
	return res, nil
}

func printE2E(w io.Writer, label string, a, traced *e2e) {
	for _, c := range append(slices.Clip(a.checks), checksOf(traced)...) {
		fmt.Fprintln(w, "CHECK FAILED:", c)
	}
	errShare := float64(a.failed) / float64(max(a.attempted, 1))
	if traced == nil {
		fmt.Fprintf(w, "%s: attempted=%d failed=%d error_share=%g latency_samples=%d\n",
			label, a.attempted, a.failed, errShare, a.samples)
		for _, m := range e2eMetrics {
			fmt.Fprintf(w, "  %-18s %14.4f %s\n", m.name, a.metrics()[m.name], m.unit)
		}
		return
	}
	fmt.Fprintf(w, "%-18s %14s %14s %9s\n", "metric", "untraced", "traced", "change")
	am, tm := a.metrics(), traced.metrics()
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "%-18s %14.4f %14.4f %8.1f%%  %s\n", m.name, am[m.name], tm[m.name],
			100*(tm[m.name]-am[m.name])/am[m.name], m.unit)
	}
	fmt.Fprintf(w, "%-18s %14d %14d\n", "latency_samples", a.samples, traced.samples)
	fmt.Fprintf(w, "%-18s %14g %14g\n", "error_share", errShare,
		float64(traced.failed)/float64(max(traced.attempted, 1)))
}

func checksOf(r *e2e) []string {
	if r == nil {
		return nil
	}
	return r.checks
}

// envStamp names what the figures depend on besides the code: CPUs, the
// scheduler's parallelism, the toolchain, the kernel, and the filesystem
// the WAL directories live on.
func envStamp(workDir string) string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s/%s kernel=%s walfs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		kernel, fsType(workDir))
}

// fsType returns the filesystem type of the mount holding dir, from the
// longest matching mount point in /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}

// stopOnSignal makes SIGINT/SIGTERM stop any lflserver child before exit.
func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		killChildren()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		os.Exit(1)
	}()
}

// watchdog bounds a run: past d it stops every child and exits non-zero
// rather than overrun the caller's time limit.
func watchdog(d time.Duration) {
	time.AfterFunc(d, func() {
		killChildren()
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", d)
		os.Exit(1)
	})
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
