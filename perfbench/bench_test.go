package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func specMetrics(ms []struct{ Name, Unit string }) []metric {
	var out []metric
	for _, m := range ms {
		out = append(out, metric{m.Name, m.Unit})
	}
	return out
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	if got := specMetrics(s.EndToEnd); !slices.Equal(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", got, e2eMetrics)
	}
	if got := specMetrics(s.PerLayer); !slices.Equal(got, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark emits %v", got, layerMetrics)
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, tc := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}, {150, 160}}, 20},
		{"nested and overlapping, unsorted", []interval{{150, 180}, {110, 130}, {120, 155}, {125, 126}}, 30},
		{"clipped to the parent", []interval{{50, 120}, {190, 250}}, 70},
		{"outside the parent", []interval{{10, 90}, {200, 300}}, 100},
		{"covers the parent", []interval{{0, 300}}, 0},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
	} {
		if got := selfTime(p, tc.kids); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestBudgetPartitionsRequest checks that, for depth-1 requests whose
// spans nest the way a served round trip does, the layer self times add
// up to the request, and spans outside any request are ignored.
func TestBudgetPartitionsRequest(t *testing.T) {
	reqs := []span{{start: 1000, end: 1100, n: 1}, {start: 1200, end: 1290, n: 1}}
	reads := []span{
		{start: 900, end: 1020},  // blocked before the send: counts from 1000
		{start: 1030, end: 1210}, // the next request's read, started early: counts from 1200
		{start: 1300, end: 1400}, // after the last request
	}
	writes := []span{{start: 1060, end: 1080}, {start: 1250, end: 1270}}
	stores := []span{{start: 1040, end: 1050, n: 1}, {start: 1220, end: 1240, n: 1}, {start: 500, end: 600, n: 1}}
	b := analyze([][]span{reqs}, [][]span{reads}, [][]span{writes}, [][]span{stores})
	if b.linked != 2 || b.ops != 2 || b.storeCall != 2 || b.reads != 2 || b.writes != 2 {
		t.Fatalf("linked %d ops %d store calls %d reads %d writes %d", b.linked, b.ops, b.storeCall, b.reads, b.writes)
	}
	// Request 1: read 1000-1020, command 1020-1080 (store 10, write 20,
	// server 30), client 1080-1100. Request 2: read 1200-1210, command
	// 1210-1270 (store 20, write 20, server 20), client 1270-1290.
	if b.ioSelf != 20+20+10+20 || b.storeSelf != 30 || b.serverSelf != 50 || b.clientSelf != 40 {
		t.Errorf("io %d store %d server %d client %d", b.ioSelf, b.storeSelf, b.serverSelf, b.clientSelf)
	}
	if sum := b.ioSelf + b.storeSelf + b.serverSelf + b.clientSelf; sum != b.reqTotal {
		t.Errorf("layers sum to %d, requests to %d", sum, b.reqTotal)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%g) = %g, want %g within 1%%", q, got, want)
		}
	}
	if m := h.mean(); m != 50000.5 {
		t.Errorf("mean = %g", m)
	}
	for i := 0; i < histBuckets; i++ {
		lo, w := histRange(i)
		if histIndex(lo) != i || histIndex(lo+w-1) != i {
			t.Fatalf("bucket %d: range [%d, %d) maps to %d..%d", i, lo, lo+w, histIndex(lo), histIndex(lo+w-1))
		}
	}
}

var (
	buildOnce sync.Once
	serverBin string
	buildErr  error
)

// lflserverBin builds cmd/lflserver from the repository, as run.py does.
func lflserverBin(t *testing.T) string {
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-test")
		if err != nil {
			buildErr = err
			return
		}
		serverBin = filepath.Join(dir, "lflserver")
		cmd := exec.Command("go", "build", "-o", serverBin, "./cmd/lflserver")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Log(string(out))
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return serverBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serverBin != "" {
		os.RemoveAll(filepath.Dir(serverBin))
	}
	os.Exit(code)
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that it passes its correctness checks and emits exactly the
// metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	s := loadSpec(t)
	want := map[bool][]string{}
	for _, m := range s.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range s.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload:  w,
				seed:      42,
				window:    600 * time.Millisecond,
				serverBin: lflserverBin(t),
				workDir:   t.TempDir(),
				size: sizes{
					libKeys: 1 << 12, servedKeys: 1 << 10,
					setups: 2, restarts: 2,
					warmup: 50 * time.Millisecond, spanCap: 1 << 16,
				},
				out: io.Discard,
			}
			if testing.Verbose() {
				cfg.out = os.Stdout
			}
			res, err := runWorkload(cfg, measureFor(w), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name, v := range res.Metrics {
				got = append(got, name)
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, name, v.Value)
				}
			}
			sort.Strings(got)
			exp := slices.Clone(want[traced])
			sort.Strings(exp)
			if !slices.Equal(got, exp) {
				t.Errorf("%s traced=%v: emitted %v, want %v", w, traced, got, exp)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("%s: result line has keys %v", w, keys)
			}
		}
	}
}
