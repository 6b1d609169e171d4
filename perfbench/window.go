package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A measured window is split into parts of half a second, and every
// end-to-end figure of the window is a median of per-part values. The
// benchmark shares two virtual CPUs with whatever else their host runs:
// a disturbance lasting a few parts moves only those parts. The median
// is taken over the parts in which the host stole no more CPU time from
// this machine than in the window's median part (all of them when it
// stole nothing), because a stolen millisecond stalls whatever was
// running and shows as tail latency the program did not cause.

func windowParts(window time.Duration) int { return max(3, int(window/(time.Second/2))) }

// windowRec is one load loop's record of the window, by part. A sample
// belongs to the part in which its request was sent.
type windowRec struct {
	start, part int64
	hists       []hist
	ops         []uint64
}

func newWindowRec(start int64, window time.Duration) *windowRec {
	n := windowParts(window)
	return &windowRec{start: start, part: int64(window) / int64(n), hists: make([]hist, n), ops: make([]uint64, n)}
}

func (w *windowRec) index(sent int64) int {
	return min(int((sent-w.start)/w.part), len(w.ops)-1)
}

// windowStats are a window's end-to-end figures, and the per-part values
// behind them.
type windowStats struct {
	throughput, p50us, p99us, cpuUSPerOp float64
	meanNs                               float64 // over the whole window
	ops, samples                         uint64
	parts                                map[string][]float64
}

// summarize merges the loops' records part by part. cpu holds the CPU
// clock of the measured process and steal the host's steal ticks at every
// part boundary (len parts+1).
func summarize(recs []*windowRec, cpu []time.Duration, steal []uint64) windowStats {
	n := len(recs[0].ops)
	st := windowStats{parts: map[string][]float64{}}
	var all hist
	for i := 0; i < n; i++ {
		var h hist
		var ops uint64
		for _, r := range recs {
			h.merge(&r.hists[i])
			ops += r.ops[i]
		}
		st.ops += ops
		st.samples += h.n
		all.merge(&h)
		if ops == 0 {
			continue
		}
		secs := float64(recs[0].part) / 1e9
		p := st.parts
		p["tput"] = append(p["tput"], float64(ops)/secs)
		p["p50"] = append(p["p50"], h.quantile(0.50)/1e3)
		p["p99"] = append(p["p99"], h.quantile(0.99)/1e3)
		p["cpu"] = append(p["cpu"], float64(cpu[i+1]-cpu[i])/1e3/float64(ops))
		p["steal"] = append(p["steal"], float64(steal[i+1]-steal[i])/100/secs/float64(runtime.NumCPU()))
	}
	quiet := median(slices.Clone(st.parts["steal"]))
	med := func(k string) float64 {
		var vs []float64
		for i, v := range st.parts[k] {
			if st.parts["steal"][i] <= quiet {
				vs = append(vs, v)
			}
		}
		return median(vs)
	}
	st.throughput, st.p50us, st.p99us, st.cpuUSPerOp = med("tput"), med("p50"), med("p99"), med("cpu")
	st.meanNs = all.mean()
	return st
}

// stealTicks returns the time, in clock ticks, the hypervisor has kept
// this machine's CPUs from running it (the steal column of /proc/stat).
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

// reportWindow prints a window's per-part values.
func reportWindow(out io.Writer, st windowStats) {
	b, _ := json.Marshal(st.parts)
	fmt.Fprintf(out, "window parts: %s\n", b)
}

// runWindow runs every load loop concurrently, from now (warm-up) until
// the window that opens at start ends, and calls tick(i) at each part
// boundary i = 0..parts of the window (0 opens it, parts closes it). It
// returns the host's steal ticks at each boundary.
func runWindow(start int64, loops []func(start, end int64), window time.Duration, tick func(i int)) (steal []uint64) {
	end := start + int64(window)
	var wg sync.WaitGroup
	for _, loop := range loops {
		wg.Add(1)
		go func(loop func(start, end int64)) {
			defer wg.Done()
			loop(start, end)
		}(loop)
	}
	parts := windowParts(window)
	steal = make([]uint64, parts+1)
	for i := 0; i <= parts; i++ {
		time.Sleep(time.Duration(start + int64(window)*int64(i)/int64(parts) - nanotime()))
		steal[i] = stealTicks()
		tick(i)
	}
	wg.Wait()
	return steal
}
