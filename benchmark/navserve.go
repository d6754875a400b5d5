package main

import (
	"bufio"
	"bytes"
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

// siteFlags select the synthetic museum every workload serves: 58
// contexts and 2,058 pages under the default indexed guided tour.
var siteFlags = []string{"-dataset", "synthetic", "-painters", "50", "-paintings", "20", "-movements", "8"}

// apiToken guards the control plane of the navserve under test; the
// generator reads the site's contexts through it and the edit writer
// mutates through it.
const apiToken = "bench-token"

// navserve is one navserve process under test.
type navserve struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited chan struct{}
}

// startup is what one start of navserve took, from exec to its first
// healthy /healthz: wall-clock time, and the CPU time its threads ran.
type startup struct {
	wall, cpu time.Duration
}

// startNavserve starts navserve over storeDir on a free loopback port
// and waits for its first healthy /healthz. The process dies with the
// benchmark even if the benchmark is killed.
func startNavserve(bin, storeDir, logPath string) (*navserve, startup, error) {
	port, err := freePort()
	if err != nil {
		return nil, startup{}, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, startup{}, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr}, siteFlags...)
	// -adapt-interval 0: the default adaptation cycle would swap access
	// structures at a moment set by the wall clock. Every other setting
	// keeps navserve's default.
	args = append(args, "-adapt-interval", "0", "-api-token", apiToken, "-store", "file", "-store-dir", storeDir)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	from := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, startup{}, fmt.Errorf("starting navserve: %w", err)
	}
	n := &navserve{cmd: cmd, addr: addr, log: logf}
	exited := make(chan struct{})
	go func() {
		// Reap a navserve that dies during start-up; stop waits on the
		// same channel.
		_ = cmd.Wait()
		close(exited)
	}()
	n.exited = exited
	for {
		if healthy(addr) {
			wall := time.Since(from)
			cpu, err := n.threadCPU()
			if err != nil {
				n.stop()
				return nil, startup{}, err
			}
			return n, startup{wall: wall, cpu: cpu}, nil
		}
		select {
		case <-exited:
			logf.Close()
			return nil, startup{}, fmt.Errorf("navserve exited during start-up (log: %s)", logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Since(from) > 60*time.Second {
			n.stop()
			return nil, startup{}, fmt.Errorf("navserve not healthy after 60s (log: %s)", logPath)
		}
	}
}

// threadCPU is the CPU time navserve's threads have run so far, summed
// from the scheduler's nanosecond counters (/proc/PID/task/TID/schedstat).
func (n *navserve) threadCPU() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", n.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread has exited
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for thread %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing schedstat: %w", err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

func healthy(addr string) bool {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte("GET /healthz HTTP/1.1\r\nHost: " + addr + "\r\nConnection: close\r\n\r\n")); err != nil {
		return false
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop kills navserve and waits until it has exited.
func (n *navserve) stop() {
	_ = n.cmd.Process.Kill()
	<-n.exited
	n.log.Close()
}

// cpu is navserve's user+system CPU time so far.
func (n *navserve) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15, in USER_HZ (100 on Linux).
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS is navserve's VmHWM, in bytes.
func (n *navserve) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirSize sums the sizes of the regular files in dir.
func dirSize(dir string) int64 {
	ents, _ := os.ReadDir(dir)
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
