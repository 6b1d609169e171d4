package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// childEnv, when set, makes the test binary run the command itself, so a
// test can signal a real lflserver process without building it first.
const childEnv = "LFLSERVER_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRunBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "3"}, "power of two"},
		{[]string{"-shards", "0"}, "power of two"},
		{[]string{"-key-lo", "10", "-key-hi", "10"}, "must exceed"},
		{[]string{"-addr", "256.256.256.256:1"}, ""},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Fatalf("run(%v) succeeded, want error", tc.args)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%v) = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// freePort reserves a loopback port and releases it for the command under
// test. The window between Close and the server's bind is racy in theory;
// on a quiet test host it is dependable enough for a smoke test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunServesAndDrainsOnSignal runs the real command loop: serve the
// protocol, answer admin probes, then drain cleanly on SIGTERM.
func TestRunServesAndDrainsOnSignal(t *testing.T) {
	addr, admin := freePort(t), freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-admin-addr", admin,
			"-shards", "2", "-key-hi", "1024", "-drain-timeout", "5s"})
	}()

	var nc net.Conn
	var err error
	for i := 0; i < 200; i++ {
		if nc, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up on %s: %v", addr, err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	if _, err := fmt.Fprintf(nc, "SET 1 one\nGET 1\nPING\n"); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{":1\n", "$one\n", "+PONG\n"} {
		line, err := br.ReadString('\n')
		if err != nil || line != want {
			t.Fatalf("response %d = %q (%v), want %q", i, line, err, want)
		}
	}

	resp, err := http.Get("http://" + admin + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d %q, want 200", resp.StatusCode, body)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
	// The drain closed the idle connection we still hold.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("connection still open after drain")
	}
}

// TestRunGroupBatchDrainsMidBurst is the end-to-end graceful-shutdown
// contract of group-batching mode: SIGTERM lands while several
// connections are mid-burst, and every command written before the
// writers stand down is answered — the drain grace serves commands
// already on the wire, executors complete every published unit before
// the pool stops, and zero replies are dropped.
func TestRunGroupBatchDrainsMidBurst(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-shards", "2", "-key-hi", "4096",
			"-groupbatch", "-group-window", "100us", "-drain-timeout", "5s"})
	}()

	const conns = 4
	const per = 64
	ncs := make([]net.Conn, conns)
	for i := 0; i < conns; i++ {
		var err error
		for try := 0; try < 200; try++ {
			if ncs[i], err = net.Dial("tcp", addr); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("server never came up on %s: %v", addr, err)
		}
		defer ncs[i].Close()
	}

	var stop atomic.Bool
	sent := make([]int, conns)
	got := make([]int, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i := range ncs {
		wg.Add(1)
		go func(i int, nc net.Conn) {
			defer wg.Done()
			br := bufio.NewReader(nc)
			var burst bytes.Buffer
			for k := 0; k < per; k++ {
				fmt.Fprintf(&burst, "SET %d v\n", i*1024+k)
			}
			for !stop.Load() {
				if _, err := nc.Write(burst.Bytes()); err != nil {
					errs[i] = fmt.Errorf("write after %d replies: %w", got[i], err)
					return
				}
				sent[i] += per
				for k := 0; k < per; k++ {
					if _, err := br.ReadString('\n'); err != nil {
						errs[i] = fmt.Errorf("read after %d replies: %w", got[i], err)
						return
					}
					got[i]++
				}
			}
		}(i, ncs[i])
	}

	time.Sleep(50 * time.Millisecond) // let the burst traffic establish
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	stop.Store(true) // writers finish their in-flight round, then stand down

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want clean drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
	wg.Wait()
	for i := 0; i < conns; i++ {
		if errs[i] != nil {
			t.Errorf("conn %d: %v", i, errs[i])
		}
		if sent[i] == 0 {
			t.Errorf("conn %d sent nothing before shutdown", i)
		}
		if got[i] != sent[i] {
			t.Errorf("conn %d: %d replies for %d sent commands (dropped %d)",
				i, got[i], sent[i], sent[i]-got[i])
		}
	}
}

// TestSIGTERMAtFirstDialDrains signals a child lflserver the moment its
// listener first accepts a connection. The signal handler must already be
// installed by then: a SIGTERM that lands between accept and
// signal.Notify kills the process without draining, and in async WAL mode
// loses acknowledged writes. The child must exit 0 and report a clean
// drain on every attempt.
func TestSIGTERMAtFirstDialDrains(t *testing.T) {
	for attempt := 0; attempt < 3; attempt++ {
		addr := freePort(t)
		cmd := exec.Command(os.Args[0], "-addr", addr, "-shards", "2", "-key-hi", "1024",
			"-wal-dir", t.TempDir(), "-drain-timeout", "5s")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			nc, err := net.Dial("tcp", addr)
			if err == nil {
				nc.Close()
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("attempt %d: server never came up on %s: %v\n%s", attempt, addr, err, out.String())
			}
			time.Sleep(time.Millisecond) // leave the CPU to the child's WAL recovery
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("attempt %d: lflserver exited with %v after SIGTERM at first dial, want a clean drain\n%s",
				attempt, err, out.String())
		}
		if !strings.Contains(out.String(), "drained cleanly") {
			t.Fatalf("attempt %d: no clean-drain report after SIGTERM\n%s", attempt, out.String())
		}
	}
}
