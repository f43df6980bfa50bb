package main

import (
	"bytes"
	"fmt"
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
)

// buildServer compiles ./cmd/samserve into dir and reports how long the
// build took (set-up time never includes it).
func buildServer(root, dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "samserve")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/samserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/samserve: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// server is one child samserve process, alone in its own process group.
type server struct {
	cmd    *exec.Cmd
	url    string
	log    string
	exited chan struct{}
}

// children tracks every live child so exit, a signal or a panic can kill
// them all; nothing the benchmark starts may outlive it.
var children struct {
	sync.Mutex
	live map[*server]bool
}

// portFree fails fast, with the fix in the message, when a fixed port is
// taken: the ring hashes shard URLs, so falling back to another port would
// silently change which shard owns which program.
func portFree(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("port %s is busy (%v): stop what holds it or pick another range with -baseport", addr, err)
	}
	return ln.Close()
}

// startServer execs samserve with its shipped defaults plus the given
// flags, logging under logDir.
func startServer(bin, logDir, addr string, flags ...string) (*server, error) {
	if err := portFree(addr); err != nil {
		return nil, err
	}
	s := &server{url: "http://" + addr, exited: make(chan struct{}),
		log: filepath.Join(logDir, "samserve-"+addr[strings.LastIndexByte(addr, ':')+1:]+".log")}
	logf, err := os.Create(s.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*server]bool{}
	}
	children.live[s] = true
	children.Unlock()
	go func() {
		s.cmd.Wait() // the exit status of a killed child carries nothing
		close(s.exited)
	}()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop kills the child's process group and waits until it has ended.
func (s *server) stop() {
	syscall.Kill(-s.pid(), syscall.SIGKILL)
	<-s.exited
	children.Lock()
	delete(children.live, s)
	children.Unlock()
}

// killChildren stops every live child; safe to call from any goroutine,
// any number of times.
func killChildren() {
	children.Lock()
	live := make([]*server, 0, len(children.live))
	for s := range children.live {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.stop()
	}
}

// guard is deferred by every goroutine the benchmark starts: a panic there
// would otherwise end the process with the children still running.
func guard() {
	if r := recover(); r != nil {
		killChildren()
		panic(r)
	}
}

// waitReady polls /readyz until it answers 200, the child dies, or ten
// seconds pass.
func (s *server) waitReady(client *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("samserve at %s exited during start-up:\n%s", s.url, s.logTail())
		default:
		}
		if resp, err := client.Get(s.url + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("samserve at %s not ready after 10 s:\n%s", s.url, s.logTail())
}

func (s *server) logTail() string {
	out, err := os.ReadFile(s.log)
	if err != nil {
		return err.Error()
	}
	if len(out) > 2048 {
		out = out[len(out)-2048:]
	}
	return string(out)
}

// clockTick is USER_HZ: the unit of utime and stime in /proc/<pid>/stat,
// 100 on every Linux this runs on.
const clockTick = 10 * time.Millisecond

// cpuTime reads a process's user+system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are fixed after
	// its closing parenthesis, which makes utime and stime the 12th and
	// 13th from there.
	rest := bytes.Fields(raw[bytes.LastIndexByte(raw, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	var ticks int64
	for _, f := range rest[11:13] {
		n, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// peakRSS reads a process's resident-set high-water mark (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
