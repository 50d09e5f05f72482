package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux build Go supports.
const clockTick = 100

// child is one zserved process in its own process group.
type child struct {
	base string // http://127.0.0.1:port
	pid  int
	done chan struct{} // closed once Wait returned
	log  *os.File
	dead bool
}

// freePort asks the kernel for an unused loopback port. zserved cannot
// report a port it picked itself, so the listener is closed and the number
// handed over; nothing else on the box races for it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches zserved over one dataset and returns once /readyz
// answers 200. The caller kills the child.
func startServer(ctx context.Context, env *benchEnv, dataPath string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(env.runDir, "zserved.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(env.binDir, "zserved"),
		"-addr", addr, "-data", datasetName+"="+dataPath, "-backend", "auto", "-cache", strconv.Itoa(cacheEntries))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(env.serverProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{base: "http://" + addr, pid: cmd.Process.Pid, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries nothing
		close(c.done)
	}()
	// One try may not outlast readyTry, nor all of them readyWait or ctx: a
	// child that accepts the connection and never answers must not hang the run.
	ctx, cancel := context.WithTimeout(ctx, readyWait)
	defer cancel()
	for {
		select {
		case <-c.done:
			c.kill()
			return nil, fmt.Errorf("zserved exited during start-up:\n%s", tailFile(logf.Name()))
		case <-ctx.Done():
			c.kill()
			return nil, fmt.Errorf("zserved not ready: %w\n%s", ctx.Err(), tailFile(logf.Name()))
		default:
		}
		if ready(ctx, c.base) {
			return c, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const (
	readyWait = 60 * time.Second
	readyTry  = time.Second
)

// ready makes one GET /readyz.
func ready(ctx context.Context, base string) bool {
	ctx, cancel := context.WithTimeout(ctx, readyTry)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// kill SIGKILLs the child's process group and waits until it has ended.
// Safe to call twice.
func (c *child) kill() {
	if c.dead {
		return
	}
	c.dead = true
	_ = syscall.Kill(-c.pid, syscall.SIGKILL) // ESRCH once it is gone
	<-c.done
	c.log.Close()
}

func tailFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuTicks returns utime+stime of the child in clock ticks.
func (c *child) cpuTicks() (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis are fixed: utime and stime are the 14th and 15th overall.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", c.pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", c.pid)
	}
	return ut + st, nil
}

// rssMB returns the child's resident set in MB (10^6 bytes).
func (c *child) rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.pid) + "/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/%d/statm", c.pid)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6, nil
}

// runTool runs one of the program's own commands (zpack build, zpack
// compact) to completion.
func runTool(ctx context.Context, env *benchEnv, name string, args ...string) error {
	cmd := exec.CommandContext(ctx, filepath.Join(env.binDir, name), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(env.serverProcs))
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return nil
}
