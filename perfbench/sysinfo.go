package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is the machine and build a result was measured on. StealTicks is the
// hypervisor steal time (in USER_HZ ticks, summed over CPUs) accrued during
// the timed phase: a run taken under host contention shows it.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	CPUModel   string `json:"cpuModel"`
	StealTicks uint64 `json:"stealTicks"`
}

func newEnv() env {
	return env{
		Commit:     commit("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nproc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the aggregate steal counter from /proc/stat; 0 where the
// file or field does not exist.
func stealTicks() uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(fields[8], 10, 64)
	return v
}

// sampleRSS reads the process's resident set every interval until stop is
// closed, then sends the samples, in MB, on the returned channel.
func sampleRSS(every time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var xs []float64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- xs
				return
			case <-t.C:
				if mb, ok := rssMB(); ok {
					xs = append(xs, mb)
				}
			}
		}
	}()
	return out
}

// rssMB is the current resident set from /proc/self/statm, in MB.
func rssMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit resolves HEAD of the git checkout at root by reading .git
// directly; "unknown" when the tree is not a git checkout.
func commit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
