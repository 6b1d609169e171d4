package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// backend is the server a served run talks to: an lflserver child
// process in the end-to-end run, or the same server hosted in this
// process, behind timing wrappers, in the traced run.
type backend interface {
	address() string
	pid() int
	stop() error
}

func (c *child) address() string { return c.addr }

// bootFunc starts a server on walDir ("" for none) and returns once it
// accepts connections.
type bootFunc func(walDir string) (backend, error)

func childBoot(cfg config, spec servedSpec) bootFunc {
	return func(walDir string) (backend, error) {
		var args []string
		if spec.wal {
			args = []string{"-wal-dir", walDir, "-wal-mode", "async"}
		}
		c, err := startServer(cfg.serverBin, args...)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
}

func measureServed(cfg config, spec servedSpec, traced bool) (*e2e, map[string]float64, error) {
	n := cfg.size.servedKeys
	tab := newKeyTable(n, spec.resp, cfg.seed)
	r := &e2e{}
	var tr *tracer
	boot := childBoot(cfg, spec)
	if !traced {
		// The load is two connections blocked in I/O most of the time; one
		// P serves them, and a second would only spin on the CPUs the
		// server needs.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		fmt.Fprintf(cfg.out, "load: %d connections from a GOMAXPROCS 1 client; lflserver at its default GOMAXPROCS (%d CPUs)\n",
			servedConns, runtime.NumCPU())
	} else {
		tr = newTracer(cfg.size.spanCap)
		boot = tr.boot(spec)
	}
	dirFor := func(i int) string {
		if !spec.wal {
			return ""
		}
		return filepath.Join(cfg.workDir, fmt.Sprintf("wal-%s-%d-%d", spec.name, os.Getpid(), i))
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()

	// Set-up, several times: start the server, connect, prefill half the
	// keys, every SET acknowledged. The last set-up is the one measured.
	var srv backend
	var conns []*clientConn
	var setups []float64
	for i := 0; i < cfg.size.setups; i++ {
		if srv != nil {
			for _, c := range conns {
				c.quit()
			}
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		dir := dirFor(i)
		if dir != "" {
			os.RemoveAll(dir)
			dirs = append(dirs, dir)
		}
		conns = conns[:0]
		for id := 0; id < servedConns; id++ {
			conns = append(conns, newClientConn(id, spec, tab, n, cfg.seed))
		}
		t0 := time.Now()
		var err error
		if srv, err = boot(dir); err != nil {
			return nil, nil, err
		}
		if err := eachConn(conns, func(c *clientConn) error {
			if err := c.dial(srv.address()); err != nil {
				return err
			}
			return c.prefill(prefillKeys(c.id, n, cfg.seed))
		}); err != nil {
			srv.stop()
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setupS = median(setups)
	liveKeys := 0
	for _, c := range conns {
		liveKeys += len(prefillKeys(c.id, n, cfg.seed))
	}
	rss, err := procRSS(srv.pid())
	if err != nil {
		srv.stop()
		return nil, nil, err
	}
	r.memPerKey = float64(rss) / float64(liveKeys)

	// recovery_s. With the WAL it is timed on the log set-up left behind,
	// whose size does not depend on how fast the window ran; the restart
	// after the window replays a log proportional to throughput, so it is
	// reported (wal.replay_s) but not gated. Without the WAL there is
	// nothing to recover and the restarts come after the window.
	walDir := dirFor(cfg.size.setups - 1)
	var recs []float64
	restarts := func(check bool) error {
		for i := 0; i < cfg.size.restarts; i++ {
			secs, err := restartOnce(cfg, boot, walDir, func(addr string) error {
				if !check || i > 0 {
					return nil
				}
				return checkOn(addr, conns, tab, n, r, "recovered after set-up")
			})
			if err != nil {
				return err
			}
			recs = append(recs, secs)
		}
		return nil
	}
	if spec.wal {
		for _, c := range conns {
			c.quit()
		}
		if err := srv.stop(); err != nil {
			return nil, nil, err
		}
		if err := restarts(true); err != nil {
			return nil, nil, err
		}
		var err error
		if srv, err = boot(walDir); err != nil {
			return nil, nil, err
		}
		if err := eachConn(conns, func(c *clientConn) error { return c.dial(srv.address()) }); err != nil {
			srv.stop()
			return nil, nil, err
		}
	}

	// The window. The server's CPU is read from /proc at every part
	// boundary, and so is this process's, which is the client's when the
	// server is a child.
	if tr != nil {
		tr.attachClients(conns)
	}
	parts := windowParts(cfg.window)
	srvCPU := make([]time.Duration, parts+1)
	cliCPU := make([]time.Duration, parts+1)
	var loops []func(start, end int64)
	for _, c := range conns {
		loops = append(loops, c.loop)
	}
	start := nanotime() + int64(cfg.size.warmup)
	for _, c := range conns {
		c.rec = newWindowRec(start, cfg.window)
	}
	steal := runWindow(start, loops, cfg.window, func(i int) {
		srvCPU[i], _ = procCPU(srv.pid())
		cliCPU[i] = selfCPU()
		if i == 0 && tr != nil {
			tr.windowStart()
		}
	})
	if tr != nil {
		tr.windowEnd()
	}

	var wrecs []*windowRec
	var userBytes uint64
	for _, c := range conns {
		if c.err != nil {
			r.fail("connection %d: %v", c.id, c.err)
		}
		if c.warmFailed > 0 {
			r.fail("connection %d: %d wrong replies during warm-up", c.id, c.warmFailed)
		}
		wrecs = append(wrecs, c.rec)
		userBytes += c.userBytes
		r.failed += c.failed
	}
	st := summarize(wrecs, srvCPU, steal)
	reportWindow(cfg.out, st)
	if st.ops == 0 {
		srv.stop()
		return nil, nil, fmt.Errorf("no operation completed in the window: %v", r.checks)
	}
	ops := st.ops
	r.attempted, r.samples = ops, st.samples
	r.throughput, r.p50us, r.p99us, r.cpuUSPerOp = st.throughput, st.p50us, st.p99us, st.cpuUSPerOp
	clientCPU := float64(cliCPU[parts]-cliCPU[0]) / 1e3 / float64(ops)

	// Checks on the live server, then a graceful stop, then recovery:
	// restart on the same directory and time until the first reply. With
	// the WAL, the drain closed the log, so every acknowledged write must
	// be back.
	for _, c := range conns {
		c.quit()
	}
	if err := checkOn(srv.address(), conns, tab, n, r, "live"); err != nil {
		srv.stop()
		return nil, nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, nil, err
	}
	if spec.wal {
		secs, err := restartOnce(cfg, boot, walDir, func(addr string) error {
			return checkOn(addr, conns, tab, n, r, "recovered after the window")
		})
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(cfg.out, "restart after the window: %.3f s to the first reply\n", secs)
	} else if err := restarts(false); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(cfg.out, "restarts (s): %v\n", recs)
	r.recoveryS = median(recs)
	fmt.Fprintf(cfg.out, "%s: %d keys, %d prefilled, %d ops in the window, %d conns, depth %d\n",
		spec.name, n, liveKeys, ops, servedConns, spec.depth)

	layers := map[string]float64{"client.cpu_us_per_op": clientCPU}
	if tr != nil {
		tr.layers(spec, float64(ops), float64(userBytes), layers)
		if err := tr.writeSpans(filepath.Join(cfg.workDir, "trace-"+spec.name+".tsv")); err != nil {
			return nil, nil, err
		}
		tr.printBudget(cfg.out, st.meanNs)
	}
	return r, layers, nil
}

// restartOnce boots a server on walDir, times it until its first reply
// to PING, runs check against it, and stops it.
func restartOnce(cfg config, boot bootFunc, walDir string, check func(addr string) error) (float64, error) {
	t0 := time.Now()
	s, err := boot(walDir)
	if err != nil {
		return 0, err
	}
	p, err := dialProbe(s.address())
	if err == nil {
		err = p.ping()
		p.close()
	}
	secs := time.Since(t0).Seconds()
	if err == nil {
		err = check(s.address())
	}
	if c, ok := s.(*child); ok && walDir != "" {
		fmt.Fprintln(cfg.out, c.line("lflserver: recovered"))
	}
	// A restarted server gets no writes, so one stopped before it could
	// install its SIGTERM handler has lost nothing.
	if serr := s.stop(); err == nil && !errors.Is(serr, errSignalled) {
		err = serr
	}
	return secs, err
}

// checkOn compares the state of the server at addr with the models and
// records any discrepancy as a failed check.
func checkOn(addr string, conns []*clientConn, tab *keyTable, n int, r *e2e, what string) error {
	p, err := dialProbe(addr)
	if err != nil {
		return err
	}
	defer p.close()
	bad, err := p.checkState(conns, tab, n)
	if err != nil {
		return fmt.Errorf("%s state check: %w", what, err)
	}
	for _, b := range bad {
		r.fail("%s state: %s", what, b)
	}
	return nil
}

// eachConn runs f on every connection concurrently and returns the first
// error.
func eachConn(conns []*clientConn, f func(*clientConn) error) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *clientConn) {
			defer wg.Done()
			errs[i] = f(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
