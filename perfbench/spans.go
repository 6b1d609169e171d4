package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
)

// Span kinds. A request span is the client's view of one unit of work: a
// store call on lib-mixed, one command on served-read-d1, one pipelined
// round of 16 commands on served-write-d16-wal. The others are timed
// around calls into a layer's public surface from this package's wrappers.
const (
	spanReq   uint8 = iota // client: send to last reply (lib-mixed: one loop iteration)
	spanRead               // server: net.Conn.Read on an accepted connection
	spanWrite              // server: net.Conn.Write on an accepted connection
	spanStore              // store: one call through server.Store (or a direct call)
)

var spanNames = [...]string{"req", "read", "write", "store"}

// span is one timed interval. conn ties it to the client connection (or
// goroutine) whose request caused it; n is the number of keys of a store
// call, the bytes of a read or write, or the operations of a request.
type span struct {
	start, end int64
	conn       int32
	kind       uint8
	n          uint32
}

// spanLog is a fixed-capacity in-memory span buffer. Its backing array is
// allocated before the traced window and holds no pointers, so recording
// neither allocates nor gives the garbage collector anything to scan.
// Spans past capacity are counted, not kept.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// interval is a half-open [start, end) time range.
type interval struct{ start, end int64 }

// selfTime returns the length of parent not covered by any child: the
// parent's duration minus the measure of the union of its children,
// each clipped to the parent first. Children may overlap each other (a
// connection's reader and writer goroutines run at once) or nest.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	covered := int64(0)
	cur := interval{start: -1 << 62, end: -1 << 62}
	for _, c := range cs {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
		} else if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// budget is the per-request latency budget of a served run, computed from
// the spans after the run. Every server span is assigned to the request of
// its connection during which it ended, and clipped to start no earlier
// than that request: a Read that blocked before the client sent counts
// only from the send. The request's in-server command span runs from the
// end of its first Read (its bytes are in the server) to the end of its
// last Write (its last reply has left). Self times then partition the
// request:
//
//	client: request minus (first Read ∪ command) — reply transit and client wakeup
//	io:     the Read and Write spans themselves — wire, kernel and wakeups
//	server: command minus (store ∪ Write ∪ later Reads) — parse, hand-off, reply assembly
//	store:  the store calls
type budget struct {
	requests, linked, ops    int
	reads, writes, storeCall int
	storeKeys                int

	clientSelf, serverSelf, storeSelf, ioSelf int64 // sums over linked requests, ns
	reqTotal                                  int64

	residual, serverSelfH, storeCallH hist // per linked request / per store call, ns
}

// analyze builds the budget of every connection's requests.
func analyze(reqs, reads, writes, stores [][]span) *budget {
	b := &budget{}
	for c := range reqs {
		analyzeConn(b, reqs[c], reads[c], writes[c], stores[c])
	}
	return b
}

func analyzeConn(b *budget, reqs, reads, writes, stores []span) {
	type assigned struct{ reads, writes, stores []span }
	per := make([]assigned, len(reqs))
	// owner returns the index of the request during which t falls, or -1.
	owner := func(t int64) int {
		i, _ := slices.BinarySearchFunc(reqs, t, func(r span, t int64) int {
			if r.end < t {
				return -1
			}
			return 1
		})
		if i < len(reqs) && reqs[i].start <= t {
			return i
		}
		return -1
	}
	for _, s := range reads {
		if i := owner(s.end); i >= 0 {
			s.start = max(s.start, reqs[i].start)
			per[i].reads = append(per[i].reads, s)
		}
	}
	for _, s := range writes {
		if i := owner(s.end); i >= 0 {
			per[i].writes = append(per[i].writes, s)
		}
	}
	for _, s := range stores {
		if i := owner(s.end); i >= 0 {
			per[i].stores = append(per[i].stores, s)
		}
	}
	b.requests += len(reqs)
	var kids []interval
	for i, r := range reqs {
		a := per[i]
		if len(a.reads) == 0 || len(a.writes) == 0 {
			continue // a request the server side did not see whole
		}
		cmd := interval{a.reads[0].end, a.writes[len(a.writes)-1].end}
		req := interval{r.start, r.end}

		kids = append(kids[:0], cmd)
		var io int64
		for _, s := range a.reads {
			if s.end <= cmd.start {
				kids = append(kids, interval{s.start, s.end})
			}
			io += s.end - s.start
		}
		clientSelf := selfTime(req, kids)

		kids = kids[:0]
		for _, s := range a.reads {
			if s.end > cmd.start {
				kids = append(kids, interval{s.start, s.end})
			}
		}
		for _, s := range a.writes {
			kids = append(kids, interval{s.start, s.end})
			io += s.end - s.start
		}
		var store int64
		for _, s := range a.stores {
			kids = append(kids, interval{s.start, s.end})
			store += s.end - s.start
			b.storeCallH.record(s.end - s.start)
			b.storeKeys += int(s.n)
		}
		serverSelf := selfTime(cmd, kids)

		b.linked++
		b.ops += int(r.n)
		b.reads += len(a.reads)
		b.writes += len(a.writes)
		b.storeCall += len(a.stores)
		b.clientSelf += clientSelf
		b.serverSelf += serverSelf
		b.storeSelf += store
		b.ioSelf += io
		b.reqTotal += req.end - req.start
		b.residual.record((req.end - req.start) - (cmd.end - cmd.start))
		b.serverSelfH.record(serverSelf)
	}
}

// writeSpans writes every recorded span as tab-separated text, one per
// line, sorted by connection and start time.
func writeSpans(path string, logs ...*spanLog) error {
	var all []span
	for _, l := range logs {
		all = append(all, l.spans...)
	}
	slices.SortFunc(all, func(a, b span) int {
		if a.conn != b.conn {
			return cmp.Compare(a.conn, b.conn)
		}
		return cmp.Compare(a.start, b.start)
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "conn\tkind\tstart_ns\tend_ns\tn")
	for _, s := range all {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.conn, spanNames[s.kind], s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
