package check

// Child processes for the end-to-end suites that need a process they can
// SIGKILL or SIGTERM: a goroutine can be neither, so such a test re-executes
// its own binary (os.Args[0]) with an environment variable its TestMain
// reads, and drives the child as a server or a cluster worker.

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"time"
)

// ChildTB is the subset of *testing.T that StartChild needs.
type ChildTB interface {
	TB
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
	Failed() bool
}

// Child is a child process started by StartChild.
type Child struct {
	Cmd  *exec.Cmd
	name string
	out  syncBuffer
	done chan struct{} // closed once the process has exited
	err  error         // its exit status; read after done
}

// StartChild runs the test binary with args, and env added to the test's
// environment, as a child process called name in failure messages. When the
// test ends the child is killed if still running, and its output goes to the
// test log if the test failed.
func StartChild(t ChildTB, name string, env []string, args ...string) *Child {
	t.Helper()
	c := &Child{name: name, done: make(chan struct{})}
	c.Cmd = exec.Command(os.Args[0], args...)
	c.Cmd.Env = append(os.Environ(), env...)
	c.Cmd.Stdout, c.Cmd.Stderr = &c.out, &c.out
	if err := c.Cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		c.err = c.Cmd.Wait()
		close(c.done)
	}()
	t.Cleanup(func() {
		c.Cmd.Process.Kill() // an exited process reports os.ErrProcessDone
		<-c.done
		if t.Failed() {
			t.Logf("%s (pid %d, %s) output:\n%s", name, c.Cmd.Process.Pid, strings.Join(args, " "), c.Output())
		}
	})
	return c
}

// Output is what the child has written to stdout and stderr so far.
func (c *Child) Output() string { return c.out.String() }

// Wait returns the child's exit status, failing the test if it still runs
// after d.
func (c *Child) Wait(t ChildTB, d time.Duration) error {
	t.Helper()
	select {
	case <-c.done:
		return c.err
	case <-time.After(d):
		t.Fatalf("%s still running %v after it was told to stop", c.name, d)
		return nil
	}
}

// Scrape waits up to d for the child to print a line re matches, and returns
// re's first group.
func (c *Child) Scrape(t ChildTB, re *regexp.Regexp, d time.Duration) string {
	t.Helper()
	timeout := time.After(d)
	for {
		if m := re.FindStringSubmatch(c.Output()); m != nil {
			return m[1]
		}
		select {
		case <-c.done:
			t.Fatalf("%s exited (%v) before printing %q", c.name, c.err, re)
		case <-timeout:
			t.Fatalf("%s printed no %q within %v", c.name, re, d)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// syncBuffer collects a child's output while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
