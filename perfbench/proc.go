package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// child is a started server process.
type child struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	base   string    // http://host:port
	start  time.Time // just before exec
	done   bool
}

// startServer execs bin and waits for its "listening on" line.
func startServer(bin string, args []string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...)}
	c.cmd.Stderr = &c.stderr
	// Kill the server if the benchmark dies first.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.start = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	const marker = "listening on "
	i := strings.Index(line, marker)
	if err != nil || i < 0 {
		c.kill()
		return nil, fmt.Errorf("%s did not report its address (%q, %v): %s", bin, line, err, c.stderr.String())
	}
	c.base = "http://" + strings.TrimSpace(line[i+len(marker):])
	// Nothing else is printed on stdout; drain it so a stray write never blocks.
	go func() { _, _ = io.Copy(io.Discard, out) }()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop sends SIGTERM and waits for a clean exit, returning how long the
// drain and exit took.
func (c *child) stop() (time.Duration, error) {
	t := time.Now()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return 0, err
	}
	err := c.cmd.Wait()
	c.done = true
	if err != nil {
		return 0, fmt.Errorf("server exit: %v: %s", err, c.stderr.String())
	}
	return time.Since(t), nil
}

// kill ends the process if it is still running and reaps it.
func (c *child) kill() {
	if c.done {
		return
	}
	c.done = true
	_ = c.cmd.Process.Kill() // already exited is fine: Wait reaps it
	_ = c.cmd.Wait()
}

// procCPU is utime+stime of a live process, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procHWM is VmHWM (peak resident set) of a live process, in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
