package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/lockbased"
	"repro/internal/stats"
)

// E5 verifies the skip list's expected O(log n) behaviour (Section 4,
// citing Pugh): search steps and latency must grow logarithmically in n,
// in contrast with the linked list's linear growth, and the crossover
// between the two must appear at small n.
type E5Result struct {
	Rows []E5Row
	// StepFit fits skip-list search steps against log2(n); the paper
	// predicts a near-perfect logarithmic fit.
	StepFit stats.LinearFit
}

// E5Row is one list size.
type E5Row struct {
	N             int
	SkipSteps     float64 // mean essential steps per skip-list search
	SkipNsPerOp   float64
	ListNsPerOp   float64 // FR plain list search latency (linear in n)
	LockedNsPerOp float64 // coarse-locked skip list latency
}

// E5Config parameterizes the sweep.
type E5Config struct {
	Ns     []int
	Probes int
	// MaxListN bounds the sizes at which the O(n) plain list is probed
	// (beyond this it is pointlessly slow).
	MaxListN int
}

// e5Builds is the number of independently built skip lists probed per
// size. The claim is about the expectation over random tower heights, and
// the probes of one list share its top levels, so one build is a single
// sample of that expectation.
const e5Builds = 8

// DefaultE5Config returns the configuration used by the harness.
func DefaultE5Config() E5Config {
	return E5Config{
		Ns:       []int{1_000, 4_000, 16_000, 64_000, 256_000},
		Probes:   2_000,
		MaxListN: 64_000,
	}
}

// RunE5 runs the sweep single-threaded (the claim is about expected work,
// not parallelism; E4 covers scalability).
func RunE5(cfg E5Config) E5Result {
	var res E5Result
	var lx, ly []float64
	for _, n := range cfg.Ns {
		row := E5Row{N: n}

		st := &core.OpStats{}
		p := &core.Proc{Stats: st}
		var elapsed time.Duration
		for b := 0; b < e5Builds; b++ {
			sl := core.NewSkipList[int, int]()
			for k := 0; k < 2*n; k += 2 {
				sl.Insert(nil, k, k)
			}
			begin := time.Now()
			for i := 0; i < cfg.Probes; i++ {
				sl.Search(p, probeKey(i, n))
			}
			elapsed += time.Since(begin)
		}
		searches := float64(e5Builds * cfg.Probes)
		row.SkipNsPerOp = float64(elapsed.Nanoseconds()) / searches
		row.SkipSteps = float64(st.EssentialSteps()) / searches

		lsl := lockbased.NewSkipList[int, int](0, nil)
		for k := 0; k < 2*n; k += 2 {
			lsl.Insert(k, k)
		}
		begin := time.Now()
		for i := 0; i < cfg.Probes; i++ {
			lsl.Contains(probeKey(i, n))
		}
		row.LockedNsPerOp = float64(time.Since(begin).Nanoseconds()) / float64(cfg.Probes)

		if n <= cfg.MaxListN {
			ll := core.NewList[int, int]()
			for k := 0; k < 2*n; k += 2 {
				ll.Insert(nil, k, k)
			}
			probes := max(cfg.Probes/10, 100)
			begin = time.Now()
			for i := 0; i < probes; i++ {
				ll.Search(nil, probeKey(i, n))
			}
			row.ListNsPerOp = float64(time.Since(begin).Nanoseconds()) / float64(probes)
		}

		res.Rows = append(res.Rows, row)
		lx = append(lx, float64(n))
		ly = append(ly, row.SkipSteps)
	}
	res.StepFit = stats.FitLogarithmic(lx, ly)
	return res
}

// probeKey spreads probes over hits and misses across the key space.
func probeKey(i, n int) int {
	return (i * 2 * n / 1000) % (2 * n)
}

// Render prints the scaling table.
func (r E5Result) Render() string {
	t := Table{
		Title: "E5: skip list O(log n) scaling vs linked list O(n)",
		Columns: []string{"n", "skip steps/search", "skip ns/op", "FR list ns/op",
			"locked skip ns/op"},
	}
	for _, row := range r.Rows {
		listNs := "-"
		if row.ListNsPerOp > 0 {
			listNs = f(row.ListNsPerOp)
		}
		t.AddRow(d(row.N), f(row.SkipSteps), f(row.SkipNsPerOp), listNs, f(row.LockedNsPerOp))
	}
	t.Notes = append(t.Notes, fmt2(
		"skip-list steps vs log2(n): slope %.2f steps per doubling, R^2 %.4f",
		r.StepFit.Slope, r.StepFit.R2))
	return t.Render()
}
