package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one fppnd process started by the benchmark.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	control *http.Client
	// logDone closes when the daemon's stderr reaches EOF; log then
	// holds everything it wrote after the listening line.
	logDone chan struct{}
	log     bytes.Buffer
}

// startDaemon execs the prebuilt daemon on a free loopback port and
// returns once /healthz answers, polling every millisecond.
func startDaemon(bin string, budgetMB int64) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-budget-mb", strconv.FormatInt(budgetMB, 10))
	// Should the benchmark itself be killed, the kernel kills the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, control: &http.Client{Timeout: 10 * time.Second}, logDone: make(chan struct{})}

	// The daemon logs its bound address; the reader then keeps draining
	// stderr so that the daemon never blocks on a full pipe.
	addrc := make(chan string, 1)
	go func(addrc chan<- string) {
		defer close(d.logDone)
		r := bufio.NewReader(stderr)
		for {
			line, err := r.ReadString('\n')
			if i := strings.Index(line, "listening on "); i >= 0 && addrc != nil {
				addrc <- strings.Fields(line[i+len("listening on "):])[0]
				addrc = nil
			} else {
				d.log.WriteString(line)
			}
			if err != nil {
				if addrc != nil {
					close(addrc)
				}
				return
			}
		}
	}(addrc)
	fail := func(err error) (*daemon, error) {
		_ = d.stop() // the start-up error is the one to report
		return nil, err
	}
	select {
	case addr, ok := <-addrc:
		if !ok {
			return fail(fmt.Errorf("daemon exited before listening: %s", d.log.String()))
		}
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		return fail(errors.New("daemon did not report its address within 30s"))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.control.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("daemon not healthy within 30s: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the graceful drain (SIGKILL after 10s)
// and returns an error if the daemon did not exit cleanly.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
	done := make(chan error, 1)
	go func() {
		<-d.logDone
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exit: %v: %s", err, d.log.String())
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return errors.New("daemon did not drain within 10s; killed")
	}
}

// counters is the daemon's state at one edge of the measured window.
type counters struct {
	at       time.Time
	cache    struct{ Hits, Misses, Evictions, StatesCreated int64 }
	requests int64
	mem      struct{ Mallocs, TotalAlloc, NumGC, PauseTotalNs uint64 }
	cpu      time.Duration // daemon user+system time
	selfCPU  time.Duration // the benchmark process's own
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.control.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// snapshot reads the cache counters from /metrics, the Go memory
// statistics from /debug/vars, and both processes' CPU time from /proc.
func (d *daemon) snapshot() (counters, error) {
	var c counters
	var metrics struct {
		Requests int64 `json:"requests"`
		Cache    struct {
			Hits          int64 `json:"hits"`
			Misses        int64 `json:"misses"`
			Evictions     int64 `json:"evictions"`
			StatesCreated int64 `json:"states_created"`
		} `json:"cache"`
	}
	if err := d.getJSON("/metrics", &metrics); err != nil {
		return c, err
	}
	c.requests = metrics.Requests
	c.cache.Hits, c.cache.Misses = metrics.Cache.Hits, metrics.Cache.Misses
	c.cache.Evictions, c.cache.StatesCreated = metrics.Cache.Evictions, metrics.Cache.StatesCreated
	var vars struct {
		Memstats struct{ Mallocs, TotalAlloc, NumGC, PauseTotalNs uint64 } `json:"memstats"`
	}
	if err := d.getJSON("/debug/vars", &vars); err != nil {
		return c, err
	}
	c.mem = vars.Memstats
	var err error
	if c.cpu, err = procCPU(d.cmd.Process.Pid); err != nil {
		return c, err
	}
	if c.selfCPU, err = procCPU(os.Getpid()); err != nil {
		return c, err
	}
	c.at = time.Now()
	return c, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after its closing
	// parenthesis are fixed: state is field 3, utime 14, stime 15.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB returns the daemon's VmHWM in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
