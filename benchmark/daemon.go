package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nodesampling/client"
	"nodesampling/internal/telemetry"
)

// daemon is one spawned unsd process. The harness knows it only by what an
// operator would: its listening lines, its sockets, /metrics, /trace and
// /proc/<pid>.
type daemon struct {
	cmd    *exec.Cmd
	stream string // host:port of the framed listener
	http   string // http://host:port
	log    *syncBuffer
	waited chan struct{}
}

// syncBuffer collects a daemon's stdout and stderr; kept on disk only when
// the run fails.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b.Bytes()...)
}

// live is every daemon currently running, so that any exit path — error,
// signal, panic — can kill them all.
var live struct {
	mu sync.Mutex
	m  map[*daemon]struct{}
}

func killAll() {
	live.mu.Lock()
	ds := make([]*daemon, 0, len(live.m))
	for d := range live.m {
		ds = append(ds, d)
	}
	live.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

const readyTimeout = 20 * time.Second

// spawn starts one unsd and waits for its two listening lines. streamAddr is
// "127.0.0.1:0" for a standalone daemon; fleet members need their address
// known up front (it is their identity in -members).
func spawn(unsd string, pl placement, streamAddr string, extra ...string) (*daemon, error) {
	args := append([]string{
		"-http", "127.0.0.1:0", "-stream", streamAddr,
		"-seed", strconv.Itoa(daemonSeed), "-log-level", "error",
	}, extra...)
	cmd := exec.Command(unsd, args...)
	// Own process group, and the kernel kills it if the harness dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, log: &syncBuffer{}, waited: make(chan struct{})}
	cmd.Stderr = d.log
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startConfined(pl.daemons, pl.generator, cmd.Start); err != nil {
		return nil, fmt.Errorf("start %s: %w", unsd, err)
	}
	live.mu.Lock()
	if live.m == nil {
		live.m = make(map[*daemon]struct{})
	}
	live.m[d] = struct{}{}
	live.mu.Unlock()

	type addrs struct{ stream, http string }
	found := make(chan addrs, 1)
	go func() {
		defer close(d.waited)
		var a addrs
		sc := bufio.NewScanner(io.TeeReader(stdout, d.log))
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "stream listening on "); ok {
				a.stream = v
			}
			if v, ok := strings.CutPrefix(line, "http listening on "); ok {
				a.http = v
				found <- a
			}
		}
		_ = cmd.Wait()
	}()
	select {
	case a := <-found:
		d.stream, d.http = a.stream, "http://"+a.http
		return d, nil
	case <-d.waited:
		d.kill()
		return nil, fmt.Errorf("unsd exited before listening: %s", d.log.Bytes())
	case <-time.After(readyTimeout):
		d.kill()
		return nil, errors.New("unsd did not print its listening lines in time")
	}
}

// kill ends the daemon's whole process group and waits for it.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	}
	<-d.waited
	live.mu.Lock()
	delete(live.m, d)
	live.mu.Unlock()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func (d *daemon) scrape() (*telemetry.Scrape, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return client.ScrapeMetrics(ctx, scrapeClient, d.http+"/metrics", "")
}

// traceEvents fetches the daemon's sampled span ring (GET /trace).
func (d *daemon) traceEvents() ([]byte, error) {
	resp, err := scrapeClient.Get(d.http + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /trace: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// fleet is the daemons of one workload run.
type fleet struct {
	ds []*daemon
}

func (f *fleet) kill() {
	for _, d := range f.ds {
		d.kill()
	}
}

// saveLogs keeps the daemons' output for a failed run.
func (f *fleet) saveLogs(dir, name string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	for i, d := range f.ds {
		_ = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-unsd%d.log", name, i)), d.log.Bytes(), 0o644)
	}
}

// fleetPorts picks n loopback addresses for a fleet. Members cannot listen on
// :0 because their -stream address is their identity in -members, and that
// identity also keys the fleet's placement: random ports would hand member 1
// a different share of the ids on every run (it measured 193 000 to 210 000
// ids/s of the same 600 000). So the ports are fixed, and only move on, by n,
// while one of them is taken.
func fleetPorts(n int) ([]string, error) {
	const first, tries = 47141, 64
	for base := first; base < first+tries*n; base += n {
		addrs := make([]string, n)
		free := true
		for i := range addrs {
			addrs[i] = "127.0.0.1:" + strconv.Itoa(base+i)
			ln, err := net.Listen("tcp", addrs[i])
			if err != nil {
				free = false
				break
			}
			_ = ln.Close()
		}
		if free {
			return addrs, nil
		}
	}
	return nil, fmt.Errorf("no %d consecutive free loopback ports from %d", n, first)
}

// spawnFleet starts the workload's daemons with the issue's fixed flags
// (default -c 25 -k 50 -s 10) and -block (spec.go says why). It returns once
// every listener is up; ready does the rest.
func spawnFleet(unsd string, w *workload, pl placement, traceSample int) (*fleet, error) {
	common := []string{
		"-shards", strconv.Itoa(w.shards),
		"-trace-sample", strconv.Itoa(traceSample),
		"-block",
	}
	f := &fleet{}
	if w.daemons == 1 {
		d, err := spawn(unsd, pl, "127.0.0.1:0", common...)
		if err != nil {
			return nil, err
		}
		f.ds = append(f.ds, d)
		return f, nil
	}
	members, err := fleetPorts(w.daemons)
	if err != nil {
		return nil, err
	}
	common = append(common, "-cluster", "-members", strings.Join(members, ","))
	for _, m := range members {
		d, err := spawn(unsd, pl, m, common...)
		if err != nil {
			f.kill()
			return nil, err
		}
		f.ds = append(f.ds, d)
	}
	return f, nil
}

// ready blocks until every member of a fleet sees every peer connected. A
// standalone daemon is ready once connection A's Ping is answered, which the
// caller does.
func (f *fleet) ready() error {
	if len(f.ds) == 1 {
		return nil
	}
	deadline := time.Now().Add(readyTimeout)
	for _, d := range f.ds {
		for {
			s, err := d.scrape()
			if err == nil {
				if fam := s.Family("unsd_cluster_member_connected"); fam != nil && len(fam.Samples) == len(f.ds) {
					up := 0
					for _, smp := range fam.Samples {
						if smp.Value == 1 {
							up++
						}
					}
					if up == len(f.ds) {
						break
					}
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet member %s never saw every peer connected", d.stream)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// procCPU is the user+system CPU time a process has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(b, ')')
	fields := strings.Fields(string(b[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procPeakRSS is VmHWM from /proc/<pid>/status, in KiB.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
