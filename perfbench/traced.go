package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/wal"
	"repro/lockfree"
	ltel "repro/lockfree/telemetry"
)

// The traced run hosts the server in this process so that calls into
// each layer can be timed from outside it: server.Store through
// timedStore, and the accepted net.Conn through timedConn, handed to
// server.Serve by timedListener. Nothing inside the server changes.

// inproc is lflserver's run() at its default flags, hosted here.
type inproc struct {
	srv    *server.Server
	store  *lockfree.ShardedSkipList[int, string]
	tel    *ltel.Telemetry
	obs    *server.Obs
	log    *wal.Log
	addr   string
	served chan error
	replay time.Duration // snapshot restore + WAL open + replay
}

func (p *inproc) address() string { return p.addr }
func (p *inproc) pid() int        { return os.Getpid() }

func (p *inproc) stop() error {
	err := server.GracefulShutdown(10*time.Second, p.srv)
	if serr := <-p.served; err == nil && !errors.Is(serr, server.ErrServerClosed) {
		err = serr
	}
	if p.log != nil {
		if cerr := p.log.Close(); err == nil {
			err = cerr
		}
	}
	p.tel.Unregister()
	return err
}

// bootInproc builds the store, recovers it, and starts serving, following
// cmd/lflserver's run() step for step at the flags the workload passes.
func bootInproc(spec servedSpec, walDir string, tr *tracer) (*inproc, error) {
	store, tel := newStore()
	p := &inproc{store: store, tel: tel, served: make(chan error, 1)}
	durability := server.DurabilityOff
	if spec.wal {
		durability = server.DurabilityAsync
		t0 := time.Now()
		snapLSN, _, err := snapshot.Restore(walDir, func(k int64, v string) bool {
			return store.Insert(int(k), v)
		})
		if err != nil && !errors.Is(err, snapshot.ErrNoSnapshot) {
			tel.Unregister()
			return nil, fmt.Errorf("snapshot restore: %w", err)
		}
		p.log, err = wal.Open(wal.Options{Dir: walDir, FsyncWindow: 2 * time.Millisecond, Telemetry: tel.Recorder()})
		if err != nil {
			tel.Unregister()
			return nil, fmt.Errorf("wal open: %w", err)
		}
		if _, err := p.log.Replay(snapLSN, func(op wal.Op, seq uint64, key int64, val []byte) error {
			switch op {
			case wal.OpSet:
				store.Insert(int(key), string(val))
			case wal.OpDel:
				store.Delete(int(key))
			}
			return nil
		}); err != nil {
			p.log.Close()
			tel.Unregister()
			return nil, fmt.Errorf("wal replay: %w", err)
		}
		p.replay = time.Since(t0)
	}
	p.srv = server.New(server.Config{
		MaxConns:    1024,
		MaxBatch:    256,
		MaxRange:    4096,
		ReadTimeout: 5 * time.Minute,
		BatchWindow: 50 * time.Microsecond,
		Durability:  durability,
		WAL:         p.log,
	}, &timedStore{s: store, tr: tr})
	p.srv.SetTelemetry(tel.Recorder())
	p.obs = server.NewObs(server.ObsConfig{SampleEvery: 64, TraceCap: 1024, SlowThreshold: 10 * time.Millisecond})
	p.srv.SetObs(p.obs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if p.log != nil {
			p.log.Close()
		}
		tel.Unregister()
		return nil, err
	}
	p.addr = ln.Addr().String()
	go func() { p.served <- p.srv.Serve(&timedListener{Listener: ln, tr: tr}) }()
	return p, nil
}

// tracer owns the spans of one traced run and the counter readings at
// the edges of its window.
type tracer struct {
	spanCap int
	stores  [servedConns]*spanLog // store calls, by the owning connection (key parity)
	clients []*clientConn

	mu       sync.Mutex
	accepted []*timedConn
	cur      *inproc // the server the window runs against

	tel0, tel1 ltel.Snapshot
	rt0, rt1   rtSample
	lat0, lat1 instrument.HistSnapshot // server command latency, all verbs
	q0, q1     instrument.HistSnapshot
	fs0, fs1   instrument.HistSnapshot // WAL fsync latency
	lag        hist                    // WAL LastLSN-Durable, sampled
	stopLag    chan struct{}
	lagDone    sync.WaitGroup
	ended      bool // the window is over: no more connections are recorded
	replay     time.Duration
	sawReplay  bool
	budget     *budget
}

func newTracer(spanCap int) *tracer {
	t := &tracer{spanCap: spanCap}
	for i := range t.stores {
		t.stores[i] = newSpanLog(spanCap)
	}
	return t
}

// boot returns the bootFunc of the traced run. Boots before the window
// are set-ups, each replacing the server the window will run against;
// the first boot after it is the recovery whose replay wal.replay_s
// reports.
func (t *tracer) boot(spec servedSpec) bootFunc {
	return func(walDir string) (backend, error) {
		p, err := bootInproc(spec, walDir, t)
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		switch {
		case !t.ended:
			t.cur, t.accepted = p, nil
		case !t.sawReplay:
			t.replay, t.sawReplay = p.replay, true
		}
		return p, nil
	}
}

func (t *tracer) attachClients(cs []*clientConn) {
	t.clients = cs
	for _, c := range cs {
		c.reqLog = newSpanLog(t.spanCap)
	}
}

func (t *tracer) windowStart() {
	p := t.cur
	t.tel0, t.rt0 = p.tel.Snapshot(), readRuntime()
	t.lat0, t.q0 = verbLatency(p.obs), p.obs.QueueWait()
	if p.log != nil {
		t.fs0 = p.log.FsyncLatency()
		t.stopLag = make(chan struct{})
		t.lagDone.Add(1)
		go func() {
			defer t.lagDone.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-t.stopLag:
					return
				case <-tick.C:
					t.lag.record(int64(p.log.LastLSN() - p.log.Durable()))
				}
			}
		}()
	}
}

func (t *tracer) windowEnd() {
	p := t.cur
	t.mu.Lock()
	t.ended = true
	t.mu.Unlock()
	t.tel1, t.rt1 = p.tel.Snapshot(), readRuntime()
	t.lat1, t.q1 = verbLatency(p.obs), p.obs.QueueWait()
	if p.log != nil {
		t.fs1 = p.log.FsyncLatency()
		close(t.stopLag)
		t.lagDone.Wait()
	}
}

func verbLatency(o *server.Obs) instrument.HistSnapshot {
	return o.VerbLatency(server.VerbGet).Merge(o.VerbLatency(server.VerbSet)).Merge(o.VerbLatency(server.VerbDel))
}

// spansByClient groups the server-side spans by the client connection
// that caused them: an accepted connection is matched to a client by its
// remote address, a store call by the parity of its key.
func (t *tracer) spansByClient() (reqs, reads, writes, stores [][]span) {
	byAddr := map[string]int{}
	for _, c := range t.clients {
		if c.localAddr != "" {
			byAddr[c.localAddr] = c.id
		}
	}
	reqs = make([][]span, len(t.clients))
	reads = make([][]span, len(t.clients))
	writes = make([][]span, len(t.clients))
	stores = make([][]span, len(t.clients))
	for _, c := range t.clients {
		reqs[c.id] = c.reqLog.spans
		stores[c.id] = t.stores[c.id].spans
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.accepted {
		id, ok := byAddr[a.remote]
		if !ok {
			continue // a probe connection, or one from an earlier set-up
		}
		for i := range a.reads.spans {
			a.reads.spans[i].conn = int32(id)
		}
		for i := range a.writes.spans {
			a.writes.spans[i].conn = int32(id)
		}
		reads[id] = append(reads[id], a.reads.spans...)
		writes[id] = append(writes[id], a.writes.spans...)
	}
	return reqs, reads, writes, stores
}

func (t *tracer) logs() []*spanLog {
	var ls []*spanLog
	for _, c := range t.clients {
		ls = append(ls, c.reqLog)
	}
	ls = append(ls, t.stores[:]...)
	t.mu.Lock()
	for _, a := range t.accepted {
		ls = append(ls, a.reads, a.writes)
	}
	t.mu.Unlock()
	return ls
}

func (t *tracer) writeSpans(path string) error { return writeSpans(path, t.logs()...) }

// layers fills the per-layer row of a served workload from the spans and
// the counter readings of the window.
func (t *tracer) layers(spec servedSpec, ops, userBytes float64, out map[string]float64) {
	b := analyze(t.spansByClient())
	t.budget = b
	bops := float64(max(b.ops, 1))
	out["client.residual_us_p50"] = b.residual.quantile(0.50) / 1e3
	out["server.read_calls_per_op"] = float64(b.reads) / bops
	out["server.write_calls_per_op"] = float64(b.writes) / bops
	out["server.io_us_per_op"] = float64(b.ioSelf) / 1e3 / bops
	out["server.self_us_p50"] = b.serverSelfH.quantile(0.50) / 1e3
	lat := t.lat1.Sub(t.lat0)
	p50, _ := lat.Quantile(0.50)
	p99, _ := lat.Quantile(0.99)
	out["server.cmd_us_p50"] = float64(p50) / 1e3
	out["server.cmd_us_p99"] = float64(p99) / 1e3
	q99, _ := t.q1.Sub(t.q0).Quantile(0.99)
	out["server.queue_wait_us_p99"] = float64(q99) / 1e3
	out["server.ops_per_store_call"] = float64(b.storeKeys) / float64(max(b.storeCall, 1))
	out["store.call_ns_p50"] = b.storeCallH.quantile(0.50)
	out["store.call_ns_p99"] = b.storeCallH.quantile(0.99)
	out["store.ns_per_key"] = float64(b.storeSelf) / float64(max(b.storeKeys, 1))
	out["store.busy_share"] = float64(b.storeSelf) / float64(max(b.reqTotal, 1))
	coreLayers(t.tel0, t.tel1, ops, out)
	runtimeLayers(t.rt0, t.rt1, ops, out)
	if !spec.wal {
		zeroLayers(out, "wal")
		return
	}
	d := t.tel1.Sub(t.tel0).Counters
	out["wal.appends_per_op"] = float64(d.WALAppends) / ops
	out["wal.bytes_per_user_byte"] = float64(d.WALBytes) / userBytes
	out["wal.fsyncs_per_kop"] = float64(d.WALFsyncs) * 1e3 / ops
	fs := t.fs1.Sub(t.fs0)
	f50, _ := fs.Quantile(0.50)
	f99, _ := fs.Quantile(0.99)
	out["wal.fsync_us_p50"] = float64(f50) / 1e3
	out["wal.fsync_us_p99"] = float64(f99) / 1e3
	out["wal.durable_lag_p99"] = t.lag.quantile(0.99)
	out["wal.replay_s"] = t.replay.Seconds()
}

// printBudget prints the mean latency budget of a request by layer and
// checks that the layers add up to what the client saw.
func (t *tracer) printBudget(w io.Writer, clientMeanNs float64) {
	b := t.budget
	if b == nil || b.linked == 0 {
		fmt.Fprintln(w, "budget: no request was linked to its server spans")
		return
	}
	per := func(ns int64) float64 { return float64(ns) / float64(b.linked) / 1e3 }
	sum := per(b.clientSelf + b.serverSelf + b.storeSelf + b.ioSelf)
	dropped := 0
	for _, l := range t.logs() {
		dropped += l.dropped
	}
	fmt.Fprintf(w, "budget: %d of %d requests linked (%d spans dropped at capacity); mean self time per request:\n",
		b.linked, b.requests, dropped)
	fmt.Fprintf(w, "  client %.3f us | io (conn Read/Write) %.3f us | server %.3f us | store %.3f us\n",
		per(b.clientSelf), per(b.ioSelf), per(b.serverSelf), per(b.storeSelf))
	reqMean := per(b.reqTotal)
	opsPerReq := float64(b.ops) / float64(b.linked)
	fmt.Fprintf(w, "  layers sum %.3f us; linked request mean %.3f us; client-observed mean latency %.3f us x %.0f ops/request; sum/request %.1f%%\n",
		sum, reqMean, clientMeanNs/1e3, opsPerReq, 100*sum/reqMean)
}

// timedStore is server.Store (and server.ProcStore, so the server keeps
// its attributed path) with every call timed. A call's span goes to the
// connection owning its key; keys are owned by parity.
type timedStore struct {
	s  *lockfree.ShardedSkipList[int, string]
	tr *tracer
}

func (t *timedStore) rec(key int, t0 int64, n int) {
	c := key & (servedConns - 1)
	t.tr.stores[c].add(span{start: t0, end: nanotime(), conn: int32(c), kind: spanStore, n: uint32(n)})
}

func (t *timedStore) Insert(key int, value string) bool {
	t0 := nanotime()
	ok := t.s.Insert(key, value)
	t.rec(key, t0, 1)
	return ok
}

func (t *timedStore) Get(key int) (string, bool) {
	t0 := nanotime()
	v, ok := t.s.Get(key)
	t.rec(key, t0, 1)
	return v, ok
}

func (t *timedStore) Delete(key int) bool {
	t0 := nanotime()
	ok := t.s.Delete(key)
	t.rec(key, t0, 1)
	return ok
}

// Len and AscendRange serve only the state checks, outside the window.
func (t *timedStore) Len() int { return t.s.Len() }

func (t *timedStore) AscendRange(from, to int, fn func(key int, value string) bool) {
	t.s.AscendRange(from, to, fn)
}

func (t *timedStore) InsertBatch(items []core.KV[int, string], inserted []bool) int {
	t0 := nanotime()
	n := t.s.InsertBatch(items, inserted)
	t.rec(items[0].Key, t0, len(items))
	return n
}

func (t *timedStore) GetBatch(keys []int, vals []string, found []bool) int {
	t0 := nanotime()
	n := t.s.GetBatch(keys, vals, found)
	t.rec(keys[0], t0, len(keys))
	return n
}

func (t *timedStore) DeleteBatch(keys []int, deleted []bool) int {
	t0 := nanotime()
	n := t.s.DeleteBatch(keys, deleted)
	t.rec(keys[0], t0, len(keys))
	return n
}

func (t *timedStore) InsertProc(p *core.Proc, key int, value string) bool {
	t0 := nanotime()
	ok := t.s.InsertProc(p, key, value)
	t.rec(key, t0, 1)
	return ok
}

func (t *timedStore) GetProc(p *core.Proc, key int) (string, bool) {
	t0 := nanotime()
	v, ok := t.s.GetProc(p, key)
	t.rec(key, t0, 1)
	return v, ok
}

func (t *timedStore) DeleteProc(p *core.Proc, key int) bool {
	t0 := nanotime()
	ok := t.s.DeleteProc(p, key)
	t.rec(key, t0, 1)
	return ok
}

func (t *timedStore) InsertBatchProc(p *core.Proc, items []core.KV[int, string], inserted []bool) int {
	t0 := nanotime()
	n := t.s.InsertBatchProc(p, items, inserted)
	t.rec(items[0].Key, t0, len(items))
	return n
}

func (t *timedStore) GetBatchProc(p *core.Proc, keys []int, vals []string, found []bool) int {
	t0 := nanotime()
	n := t.s.GetBatchProc(p, keys, vals, found)
	t.rec(keys[0], t0, len(keys))
	return n
}

func (t *timedStore) DeleteBatchProc(p *core.Proc, keys []int, deleted []bool) int {
	t0 := nanotime()
	n := t.s.DeleteBatchProc(p, keys, deleted)
	t.rec(keys[0], t0, len(keys))
	return n
}

// timedListener hands server.Serve connections whose Read and Write are
// timed.
type timedListener struct {
	net.Listener
	tr *tracer
}

func (l *timedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &timedConn{
		Conn:   nc,
		remote: nc.RemoteAddr().String(),
		reads:  newSpanLog(l.tr.spanCap),
		writes: newSpanLog(l.tr.spanCap),
	}
	l.tr.mu.Lock()
	if !l.tr.ended {
		l.tr.accepted = append(l.tr.accepted, c)
	}
	l.tr.mu.Unlock()
	return c, nil
}

// timedConn times Read (reader goroutine) and Write (writer goroutine) of
// one accepted connection. The server writes replies under 1 KiB with
// plain Write calls, so wrapping costs it no vectored writes here.
type timedConn struct {
	net.Conn
	remote        string
	reads, writes *spanLog
}

func (c *timedConn) Read(p []byte) (int, error) {
	t0 := nanotime()
	n, err := c.Conn.Read(p)
	c.reads.add(span{start: t0, end: nanotime(), kind: spanRead, n: uint32(n)})
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	t0 := nanotime()
	n, err := c.Conn.Write(p)
	c.writes.add(span{start: t0, end: nanotime(), kind: spanWrite, n: uint32(n)})
	return n, err
}
