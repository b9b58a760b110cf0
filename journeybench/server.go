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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one easeml-server child process. Every process the runner
// starts is killed and reaped through stop, on success and failure paths
// alike.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // main address, e.g. http://127.0.0.1:40123
	fleet   string // dedicated fleet address
	dataDir string
	exited  chan struct{}
	log     *os.File
}

// freePort asks the kernel for an unused TCP port on the loopback device.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs the server binary with its default flags plus
// -data-dir, -fleet-addr and -seed 1 (and any extra flags) and waits until
// /readyz answers 200. It returns the process and the exec→ready time.
func startServer(bin, dataDir, logPath string, extra ...string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	fleetPort, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-fleet-addr", "127.0.0.1:" + strconv.Itoa(fleetPort),
		"-data-dir", dataDir,
		"-seed", "1",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// A runner killed mid-run takes its server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{
		cmd:     cmd,
		base:    "http://127.0.0.1:" + strconv.Itoa(port),
		fleet:   "http://127.0.0.1:" + strconv.Itoa(fleetPort),
		dataDir: dataDir,
		exited:  make(chan struct{}),
		log:     logf,
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(p.exited)
	}()
	if err := p.waitReady(30 * time.Second); err != nil {
		p.stop()
		return nil, 0, err
	}
	return p, time.Since(start), nil
}

var controlClient = &http.Client{Timeout: 30 * time.Second}

func (p *serverProc) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("server exited before becoming ready (log: %s)", p.log.Name())
		default:
		}
		resp, err := controlClient.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("server not ready within %v", limit)
}

// stop SIGKILLs the server and waits until the process has been reaped.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Kill() // fails only when the process already exited
	<-p.exited
	p.log.Close()
}

// procStats reads utime+stime (ms) and VmHWM (MiB) of the server process.
func (p *serverProc) procStats() (cpuMS, hwmMiB float64, err error) {
	pid := p.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	cpuMS = (utime + stime) * 10
	st, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	sc := bufio.NewScanner(st)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			hwmMiB = kb / 1024
		}
	}
	return cpuMS, hwmMiB, sc.Err()
}

// metricsSnap is one scrape of GET /metrics: series ("name{labels}") →
// value. Only the runner reads it; the server is not instrumented further.
type metricsSnap map[string]float64

func scrape(base string) (metricsSnap, error) {
	resp, err := controlClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (metricsSnap, error) {
	m := metricsSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sum adds every series of the family name whose labels contain each of
// the given `key="value"` fragments.
func (m metricsSnap) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range m {
		fam, lbl := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			fam, lbl = series[:i], series[i:]
		}
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after − before for every series in after.
func delta(before, after metricsSnap) metricsSnap {
	d := metricsSnap{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// newWorkDir creates the directory a run keeps its data directories and
// server logs in: under .bench_build in the checkout, removed when the
// run passes its gates.
func newWorkDir(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
