package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where one invocation of the harness builds and runs: everything it
// writes is under <root>/.bench_build or <root>/bench/out.
type env struct {
	root     string // the checkout
	serveBin string
	tmp      string     // removed on exit
	mu       sync.Mutex // live is also read by the signal handler
	live     map[*serverProc]bool
}

// findRoot walks up from the working directory to the checkout: the
// directory that holds cmd/dvms-serve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dvms-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/dvms-serve above the working directory: run from the repository")
		}
		dir = parent
	}
}

// newEnv builds ./cmd/dvms-serve from the working tree and makes the run's
// temporary directory.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	e := &env{root: root, serveBin: filepath.Join(out, "dvms-serve"), live: map[*serverProc]bool{}}
	build := exec.Command("go", "build", "-o", e.serveBin, "./cmd/dvms-serve")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build dvms-serve: %v\n%s", err, msg)
	}
	if e.tmp, err = os.MkdirTemp(out, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// cleanup kills every server still running, by process group, and removes
// the temporary directory. Safe to call more than once.
func (e *env) cleanup() {
	e.mu.Lock()
	procs := make([]*serverProc, 0, len(e.live))
	for p := range e.live {
		procs = append(procs, p)
	}
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(e.tmp)
}

// serverProc is one spawned dvms-serve.
type serverProc struct {
	env       *env
	cmd       *exec.Cmd
	logPath   string
	addr      string
	started   time.Time     // exec
	listening time.Duration // exec → "listening" log line
}

// start spawns dvms-serve on an ephemeral loopback port, in a process group
// of its own and with stderr in a file, and waits for the "listening" log
// line, from which it parses the address.
func (e *env) start(tag string, args ...string) (*serverProc, error) {
	p := &serverProc{env: e, logPath: filepath.Join(e.tmp, tag+".log")}
	logf, err := os.Create(p.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	p.cmd = exec.Command(e.serveBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	p.cmd.Stderr = logf
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.live[p] = true
	e.mu.Unlock()
	for deadline := p.started.Add(2 * time.Minute); ; time.Sleep(time.Millisecond) {
		log, _ := os.ReadFile(p.logPath)
		if addr := listeningAddr(log); addr != "" {
			p.addr, p.listening = addr, time.Since(p.started)
			return p, nil
		}
		if p.exited() || time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("dvms-serve %v did not start listening:\n%s", args, log)
		}
	}
}

// listeningAddr extracts addr= from a complete "msg=listening" slog line.
func listeningAddr(log []byte) string {
	log = log[:bytes.LastIndexByte(log, '\n')+1] // drop a line still being written
	for _, line := range bytes.Split(log, []byte("\n")) {
		if !bytes.Contains(line, []byte("msg=listening ")) {
			continue
		}
		for _, f := range strings.Fields(string(line)) {
			if v, ok := strings.CutPrefix(f, "addr="); ok {
				return v
			}
		}
	}
	return ""
}

// exited reports whether the process has become a zombie, without reaping
// it (kill does that).
func (p *serverProc) exited() bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return true
	}
	i := bytes.LastIndexByte(stat, ')')
	return i < 0 || i+2 >= len(stat) || stat[i+2] == 'Z'
}

// kill sends SIGKILL to the server's process group and waits for it.
func (p *serverProc) kill() {
	p.env.mu.Lock()
	alive := p.env.live[p]
	delete(p.env.live, p)
	p.env.mu.Unlock()
	if !alive {
		return
	}
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	p.cmd.Wait()
}

// peakRSSMB is the server's VmHWM in MB.
func (p *serverProc) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}
