package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// servedSpec is one served workload: its dialect, pipeline depth, mix and
// durability. Load is a closed loop on two connections; connection c owns
// the keys k with k%2 == c, so its replies are predictable exactly.
type servedSpec struct {
	name  string
	resp  bool // RESP2 dialect; the line protocol otherwise
	depth int  // commands per round: sent in one write, answered before the next round
	wal   bool // lflserver runs with -wal-dir on a fresh directory, -wal-mode async
	write bool // every op flips its key (SET if absent, DEL if present); else 90/5/5 GET/SET/DEL
}

var (
	readD1      = servedSpec{name: "served-read-d1", resp: true, depth: 1}
	writeD16WAL = servedSpec{name: "served-write-d16-wal", depth: 16, wal: true, write: true}
)

const (
	servedConns  = 2
	servedRing   = 1 << 18 // pre-generated op draws per connection, replayed cyclically
	writeWindow  = 256     // served-write-d16-wal draws each round's keys from this many around its cursor
	prefillChunk = 128     // SETs per pipelined prefill round
	rangeChunk   = 4096    // keys per RANGE in a state check; lflserver's default -max-range
)

// keyTable holds every command and expected reply pre-rendered, so the
// load loop copies bytes and compares bytes and formats nothing. Each key
// has two values (versions 0 and 1) and a re-insert after a delete uses
// the other one, so a stale value read back is caught.
type keyTable struct {
	resp        bool
	get, del    [][]byte
	set, hit    [2][][]byte // SET with version v's value; GET reply for a hit on version v
	vals        [2][]string
	keyLen      []uint8 // decimal digits of the key: user bytes of a command
	setOK       []byte  // reply to a SET that inserted (RESP: any SET)
	yes, no     []byte
	miss, quitC []byte
}

func newKeyTable(n int, resp bool, seed uint64) *keyTable {
	t := &keyTable{resp: resp, keyLen: make([]uint8, n)}
	g := &rng{s: seed ^ 0x5eed}
	for v := 0; v < 2; v++ {
		t.vals[v] = make([]string, n)
		for k := range t.vals[v] {
			t.vals[v][k] = fmt.Sprintf("%016x", g.next())
		}
	}
	for k := range t.keyLen {
		t.keyLen[k] = uint8(len(strconv.Itoa(k)))
	}
	cmd := func(args ...string) []byte {
		if !resp {
			return []byte(strings.Join(args, " ") + "\n")
		}
		var b []byte
		b = fmt.Appendf(b, "*%d\r\n", len(args))
		for _, a := range args {
			b = fmt.Appendf(b, "$%d\r\n%s\r\n", len(a), a)
		}
		return b
	}
	t.get = render(n, func(k int) []byte { return cmd("GET", strconv.Itoa(k)) })
	t.del = render(n, func(k int) []byte { return cmd("DEL", strconv.Itoa(k)) })
	for v := 0; v < 2; v++ {
		t.set[v] = render(n, func(k int) []byte { return cmd("SET", strconv.Itoa(k), t.vals[v][k]) })
		t.hit[v] = render(n, func(k int) []byte {
			if resp {
				return fmt.Appendf(nil, "$%d\r\n%s\r\n", len(t.vals[v][k]), t.vals[v][k])
			}
			return fmt.Appendf(nil, "$%s\n", t.vals[v][k])
		})
	}
	eol := "\n"
	t.setOK = []byte(":1\n")
	t.miss = []byte("_\n")
	if resp {
		eol = "\r\n"
		t.setOK = []byte("+OK\r\n")
		t.miss = []byte("$-1\r\n")
	}
	t.yes, t.no, t.quitC = []byte(":1"+eol), []byte(":0"+eol), cmd("QUIT")
	return t
}

// render builds n byte strings in one backing array, so the tables are a
// handful of allocations rather than one per key.
func render(n int, f func(k int) []byte) [][]byte {
	out := make([][]byte, n)
	var slab []byte
	for k := range out {
		b := f(k)
		if cap(slab)-len(slab) < len(b) {
			slab = make([]byte, 0, max(64<<10, len(b)))
		}
		at := len(slab)
		slab = append(slab, b...)
		out[k] = slab[at:len(slab):len(slab)]
	}
	return out
}

// clientConn is one load connection and the model of the keys it owns.
type clientConn struct {
	id   int
	spec servedSpec
	tab  *keyTable
	n    int // key space
	nc   net.Conn

	localAddr string // matches the server side's remote address in a traced run

	present []bool
	ver     []uint8 // version of the value stored (or last stored) at each key

	ring   []uint32 // pre-generated draws: op<<30|key index (read mix) or window offset (write)
	pos    int
	cursor int

	rbuf     []byte
	r0, r1   int
	lastRead int64
	sbuf     []byte
	expect   [][]byte

	rec                *windowRec // the measured window, by part
	userBytes          uint64     // keys and values of the measured window's commands
	failed, warmFailed uint64
	reqLog             *spanLog
	err                error
}

func newClientConn(id int, spec servedSpec, tab *keyTable, n int, seed uint64) *clientConn {
	c := &clientConn{
		id: id, spec: spec, tab: tab, n: n,
		present: make([]bool, n),
		ver:     make([]uint8, n),
		ring:    make([]uint32, servedRing),
		rbuf:    make([]byte, 64<<10),
	}
	for k := range c.ver {
		c.ver[k] = 1 // the first insert of a key stores version 0
	}
	g := &rng{s: seed + uint64(id)*0x9e3779b97f4a7c15}
	own := n / servedConns
	for i := range c.ring {
		x := g.next()
		if spec.write {
			c.ring[i] = uint32(x % (writeWindow / servedConns))
			continue
		}
		op := uint32(opGet)
		switch p := x % 100; {
		case p >= 95:
			op = opDelete
		case p >= 90:
			op = opInsert
		}
		c.ring[i] = op<<libOpKeyBits | uint32((x>>32)%uint64(own))
	}
	c.cursor = int(g.next()%uint64(n)) &^ (servedConns - 1)
	return c
}

// prefillKeys returns the half of connection id's keys that set-up
// inserts, chosen by the seed.
func prefillKeys(id, n int, seed uint64) []int {
	g := &rng{s: seed ^ uint64(id+1)*0x2545f4914f6cdd1d}
	own := n / servedConns
	p := g.perm(own)[:own/2]
	for i := range p {
		p[i] = p[i]*servedConns + id
	}
	return p
}

func (c *clientConn) dial(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c.nc = nc
	c.localAddr = nc.LocalAddr().String()
	c.r0, c.r1 = 0, 0
	return nil
}

// prefill inserts keys in pipelined rounds and checks every reply.
func (c *clientConn) prefill(keys []int) error {
	for i := 0; i < len(keys); i += prefillChunk {
		c.sbuf = c.sbuf[:0]
		chunk := keys[i:min(i+prefillChunk, len(keys))]
		for _, k := range chunk {
			c.sbuf = append(c.sbuf, c.tab.set[0][k]...)
		}
		if _, err := c.nc.Write(c.sbuf); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		for _, k := range chunk {
			f, _, err := c.frame()
			if err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
			if !bytes.Equal(f, c.tab.setOK) {
				return fmt.Errorf("prefill SET %d: reply %q, want %q", k, f, c.tab.setOK)
			}
			c.present[k], c.ver[k] = true, 0
		}
	}
	return nil
}

// nextOp draws the next command and the reply the model predicts for it,
// and applies it to the model.
func (c *clientConn) nextOp() (cmd, want []byte) {
	t := c.tab
	d := c.ring[c.pos]
	c.pos = (c.pos + 1) & (servedRing - 1)
	if c.spec.write {
		k := (c.cursor + int(d)*servedConns + c.id) % c.n
		c.userBytes += uint64(t.keyLen[k])
		if c.present[k] {
			c.present[k] = false
			return t.del[k], t.yes
		}
		v := c.ver[k] ^ 1
		c.present[k], c.ver[k] = true, v
		c.userBytes += uint64(len(t.vals[v][k]))
		return t.set[v][k], t.setOK
	}
	k := int(d&(1<<libOpKeyBits-1))*servedConns + c.id
	switch d >> libOpKeyBits {
	case opGet:
		if c.present[k] {
			return t.get[k], t.hit[c.ver[k]][k]
		}
		return t.get[k], t.miss
	case opInsert:
		// Insert-if-absent: a SET on a present key leaves its value, and
		// RESP answers +OK either way.
		if c.present[k] {
			return t.set[c.ver[k]^1][k], t.setOK
		}
		v := c.ver[k] ^ 1
		c.present[k], c.ver[k] = true, v
		return t.set[v][k], t.setOK
	default:
		if c.present[k] {
			c.present[k] = false
			return t.del[k], t.yes
		}
		return t.del[k], t.no
	}
}

// round sends one round of depth commands in a single write, reads every
// reply, and checks each against the model. A reply's latency runs from
// the write to the read that completed it.
func (c *clientConn) round(measured bool) error {
	c.expect = c.expect[:0]
	userBytes := c.userBytes
	var out []byte
	if c.spec.depth == 1 {
		var want []byte
		out, want = c.nextOp()
		c.expect = append(c.expect, want)
	} else {
		c.sbuf = c.sbuf[:0]
		for i := 0; i < c.spec.depth; i++ {
			cmd, want := c.nextOp()
			c.sbuf = append(c.sbuf, cmd...)
			c.expect = append(c.expect, want)
		}
		out = c.sbuf
		c.cursor = (c.cursor + servedConns*c.spec.depth) % c.n
	}
	if !measured {
		c.userBytes = userBytes
	}
	t0 := nanotime()
	if _, err := c.nc.Write(out); err != nil {
		return err
	}
	part := c.rec.index(t0)
	var t1 int64
	for _, want := range c.expect {
		f, t, err := c.frame()
		if err != nil {
			return err
		}
		t1 = t
		ok := bytes.Equal(f, want)
		switch {
		case !measured:
			if !ok {
				c.warmFailed++
			}
			continue
		case !ok:
			c.failed++
		}
		c.rec.hists[part].record(t - t0)
	}
	if measured {
		c.rec.ops[part] += uint64(len(c.expect))
		if c.reqLog != nil {
			c.reqLog.add(span{start: t0, end: t1, conn: int32(c.id), kind: spanReq, n: uint32(len(c.expect))})
		}
	}
	return nil
}

// loop runs rounds until end; rounds sent before start are warm-up.
func (c *clientConn) loop(start, end int64) {
	for {
		t := nanotime()
		if t >= end {
			return
		}
		if err := c.round(t >= start); err != nil {
			c.err = err
			return
		}
	}
}

// frame returns the next complete reply and the time of the read that
// completed it. The slice aliases the read buffer until the next call.
func (c *clientConn) frame() ([]byte, int64, error) {
	for {
		if n := frameLen(c.rbuf[c.r0:c.r1], c.tab.resp); n > 0 {
			f := c.rbuf[c.r0 : c.r0+n]
			c.r0 += n
			return f, c.lastRead, nil
		}
		if c.r0 == c.r1 {
			c.r0, c.r1 = 0, 0
		} else if c.r1 == len(c.rbuf) {
			c.r1 = copy(c.rbuf, c.rbuf[c.r0:c.r1])
			c.r0 = 0
		}
		if c.r1 == len(c.rbuf) {
			return nil, 0, errors.New("reply larger than the read buffer")
		}
		m, err := c.nc.Read(c.rbuf[c.r1:])
		c.lastRead = nanotime()
		c.r1 += m
		if m == 0 && err != nil {
			return nil, 0, err
		}
	}
}

// frameLen returns the length of the complete reply at the head of b, or
// 0 if b holds only part of one. Replies are one line, except a RESP bulk
// string, whose payload follows its length line.
func frameLen(b []byte, resp bool) int {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return 0
	}
	if resp && b[0] == '$' && i >= 2 && b[1] != '-' {
		n := 0
		for _, d := range b[1 : i-1] {
			n = n*10 + int(d-'0')
		}
		need := i + 1 + n + 2
		if len(b) < need {
			return 0
		}
		return need
	}
	return i + 1
}

// quit ends the connection politely, so a draining server need not wait
// out its grace period for it.
func (c *clientConn) quit() {
	if c.nc == nil {
		return
	}
	c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.nc.Write(c.tab.quitC); err == nil {
		c.frame()
	}
	c.nc.Close()
	c.nc = nil
}

// probe is a line-protocol side connection for PING and state checks.
type probe struct {
	c *clientConn
}

func dialProbe(addr string) (*probe, error) {
	tab := &keyTable{quitC: []byte("QUIT\n")}
	c := &clientConn{tab: tab, rbuf: make([]byte, 1<<20)}
	if err := c.dial(addr); err != nil {
		return nil, err
	}
	c.nc.SetDeadline(time.Now().Add(60 * time.Second))
	return &probe{c: c}, nil
}

func (p *probe) close() { p.c.quit() }

func (p *probe) ping() error {
	if _, err := p.c.nc.Write([]byte("PING\n")); err != nil {
		return err
	}
	f, _, err := p.c.frame()
	if err != nil {
		return err
	}
	if string(f) != "+PONG\n" {
		return fmt.Errorf("PING answered %q", f)
	}
	return nil
}

// checkState scans [0, n) with RANGE and compares every pair with the
// connections' models: the keys present, and the version of each value.
// It returns one line per discrepancy (at most a few, then a count).
func (p *probe) checkState(conns []*clientConn, tab *keyTable, n int) ([]string, error) {
	var bad []string
	nbad := 0
	note := func(format string, args ...any) {
		if nbad++; nbad <= 5 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	seen := make([]bool, n)
	w := bufio.NewWriter(p.c.nc)
	for lo := 0; lo < n; lo += rangeChunk {
		fmt.Fprintf(w, "RANGE %d %d\n", lo, min(lo+rangeChunk, n))
		if err := w.Flush(); err != nil {
			return nil, err
		}
		f, _, err := p.c.frame()
		if err != nil {
			return nil, err
		}
		if len(f) < 3 || f[0] != '*' {
			return nil, fmt.Errorf("RANGE answered %q", f)
		}
		cnt, err := strconv.Atoi(string(f[1 : len(f)-1]))
		if err != nil {
			return nil, fmt.Errorf("RANGE answered %q", f)
		}
		for i := 0; i < cnt; i++ {
			f, _, err := p.c.frame()
			if err != nil {
				return nil, err
			}
			ks, v, _ := strings.Cut(strings.TrimSuffix(string(f), "\n"), " ")
			k, err := strconv.Atoi(ks)
			if err != nil || k < lo || k >= n {
				return nil, fmt.Errorf("RANGE pair %q", f)
			}
			seen[k] = true
			m := conns[k%servedConns]
			switch {
			case !m.present[k]:
				note("key %d present, model says absent", k)
			case v != tab.vals[m.ver[k]][k]:
				note("key %d holds %q, model says %q", k, v, tab.vals[m.ver[k]][k])
			}
		}
	}
	for k := 0; k < n; k++ {
		if !seen[k] && conns[k%servedConns].present[k] {
			note("key %d absent, model says present", k)
		}
	}
	if nbad > 5 {
		bad = append(bad, fmt.Sprintf("... %d discrepancies in all", nbad))
	}
	return bad, nil
}
