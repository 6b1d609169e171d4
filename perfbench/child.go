package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one lflserver process.
type child struct {
	cmd     *exec.Cmd
	addr    string
	exited  chan struct{}
	mu      sync.Mutex
	drained bool     // printed "drained cleanly"
	log     []string // everything it printed, for diagnostics
}

var (
	childMu sync.Mutex
	live    = map[*child]struct{}{}
)

// killChildren kills every lflserver still running; the exit paths call it.
func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for c := range live {
		c.cmd.Process.Kill()
	}
}

// startServer starts lflserver with args plus a kernel-chosen port and
// returns once it prints the address it serves on, i.e. once recovery
// (if any) is done and it accepts connections.
func startServer(bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// Backstop for an abrupt exit of this process: the kernel kills the
	// server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	childMu.Lock()
	if err := cmd.Start(); err != nil {
		childMu.Unlock()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live[c] = struct{}{}
	childMu.Unlock()

	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.log = append(c.log, line)
			if line == "lflserver: drained cleanly" {
				c.drained = true
			}
			c.mu.Unlock()
			// "lflserver: serving 4-shard store on 127.0.0.1:PORT (keys [0, 1048576))"
			if rest, ok := strings.CutPrefix(line, "lflserver: serving "); ok {
				if _, a, ok := strings.Cut(rest, " on "); ok {
					a, _, _ = strings.Cut(a, " ")
					ready <- a
				}
			}
		}
		cmd.Wait()
		childMu.Lock()
		delete(live, c)
		childMu.Unlock()
		close(c.exited)
	}()
	select {
	case c.addr = <-ready:
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("lflserver exited before serving: %v\n%s", cmd.ProcessState, c.output())
	case <-time.After(60 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return nil, fmt.Errorf("lflserver did not start serving within 60s\n%s", c.output())
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.log, "\n")
}

// line returns the first line it printed that starts with prefix.
func (c *child) line(prefix string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.log {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

// stop sends SIGTERM and waits for the graceful drain, which also closes
// the WAL; a server that does not drain cleanly is an error.
func (c *child) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(30 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return errors.New("lflserver did not exit within 30s of SIGTERM")
	}
	c.mu.Lock()
	drained := c.drained
	c.mu.Unlock()
	if drained && c.cmd.ProcessState.Success() {
		return nil
	}
	if ws, ok := c.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return errSignalled
	}
	return fmt.Errorf("lflserver did not drain cleanly (%v)\n%s", c.cmd.ProcessState, c.output())
}

// errSignalled reports an lflserver that SIGTERM killed before it had
// installed its handler: it does so just after printing its address.
var errSignalled = errors.New("lflserver was killed by SIGTERM before it could drain")
