package chaos

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"cds/internal/daemon"
)

// FreeAddr reserves a loopback TCP address for a child to bind. The
// port is released before the child starts, so a reuse race is
// possible in principle; in practice the immediate rebind wins.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// Child is one supervised schedd process.
type Child struct {
	// Addr is the service address the child was told to bind.
	Addr string

	cmd    *exec.Cmd
	logf   func(string, ...any)
	stderr bytes.Buffer
	mu     sync.Mutex // guards stderr reads vs the copier

	waitOnce sync.Once
	waitErr  error
	exited   chan struct{}
}

// Supervisor launches schedd children. SchedCmd is the daemon binary;
// empty means re-execute the current binary (os.Args[0]) with
// daemon.ChildEnv set to Program, which runs the identical process
// through daemon.MaybeChild.
type Supervisor struct {
	SchedCmd string
	// Program names what a re-executed child runs: "schedd" (the
	// default) or "schedrouter". Ignored when SchedCmd names an external
	// binary.
	Program string
	Logf    func(format string, args ...any)
}

// Start launches one schedd child on addr with the extra flags
// appended after -addr.
func (s *Supervisor) Start(addr string, extra ...string) (*Child, error) {
	logf := s.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	bin := s.SchedCmd
	env := os.Environ()
	if bin == "" {
		bin = os.Args[0]
		prog := s.Program
		if prog == "" {
			prog = "schedd"
		}
		env = append(env, daemon.ChildEnv+"="+prog)
	}
	args := append([]string{"-addr", addr}, extra...)
	c := &Child{Addr: addr, logf: logf, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Env = env
	c.cmd.Stderr = &lockedWriter{mu: &c.mu, w: &c.stderr}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: starting schedd child: %w", err)
	}
	logf("chaos: started child pid %d on %s (args %v)", c.cmd.Process.Pid, addr, args)
	go func() {
		c.waitOnce.Do(func() { c.waitErr = c.cmd.Wait() })
		close(c.exited)
	}()
	return c, nil
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// Pid returns the child's process id.
func (c *Child) Pid() int { return c.cmd.Process.Pid }

// Stderr snapshots everything the child wrote to stderr so far.
func (c *Child) Stderr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stderr.String()
}

// Kill delivers SIGKILL: the crash the harness recovers from.
func (c *Child) Kill() error { return c.cmd.Process.Kill() }

// Term delivers SIGTERM: the graceful-drain path.
func (c *Child) Term() error { return c.cmd.Process.Signal(syscall.SIGTERM) }

// WaitExit blocks until the child exits and returns its exit code
// (-1 for a signal death, with the signal in err via exec.ExitError).
func (c *Child) WaitExit(ctx context.Context) (int, error) {
	select {
	case <-c.exited:
	case <-ctx.Done():
		return 0, fmt.Errorf("chaos: child pid %d did not exit: %w", c.Pid(), ctx.Err())
	}
	if c.waitErr == nil {
		return 0, nil
	}
	var ee *exec.ExitError
	if ok := asExitError(c.waitErr, &ee); ok {
		return ee.ExitCode(), c.waitErr
	}
	return -1, c.waitErr
}

func asExitError(err error, out **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*out = ee
	}
	return ok
}

// Exited reports (non-blocking) whether the child has exited.
func (c *Child) Exited() bool {
	select {
	case <-c.exited:
		return true
	default:
		return false
	}
}

// Stop SIGKILLs the child if still alive and reaps it. Safe on an
// already-dead child; always returns once the process is gone.
func (c *Child) Stop() {
	if !c.Exited() {
		_ = c.Kill()
	}
	<-c.exited
}

// WaitReady polls GET /healthz until the child answers 200, its
// process exits, or ctx expires.
func (c *Child) WaitReady(ctx context.Context) error {
	url := "http://" + c.Addr + "/healthz"
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if c.Exited() {
			return fmt.Errorf("chaos: child pid %d exited before becoming ready; stderr:\n%s", c.Pid(), c.Stderr())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("chaos: child on %s never became ready: %w; stderr:\n%s", c.Addr, ctx.Err(), c.Stderr())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// JournalRecords counts complete (newline-terminated) records in a
// journal file. A missing file counts zero: the sweep has not created
// it yet.
func JournalRecords(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	return bytes.Count(data, []byte("\n")), nil
}

// WaitJournalRecords polls path until it holds at least n complete
// records, returning the observed count. It fails if ctx expires or
// the child exits first (the sweep died before reaching the trigger).
func WaitJournalRecords(ctx context.Context, c *Child, path string, n int) (int, error) {
	for {
		got, err := JournalRecords(path)
		if err != nil {
			return 0, err
		}
		if got >= n {
			return got, nil
		}
		if c != nil && c.Exited() {
			return got, fmt.Errorf("chaos: child exited with %d/%d journal records; stderr:\n%s", got, n, c.Stderr())
		}
		select {
		case <-ctx.Done():
			return got, fmt.Errorf("chaos: journal %s reached only %d/%d records: %w", path, got, n, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}
