package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// processCPU is this process's CPU time (user plus system, all threads) in
// nanoseconds, from the process CPU clock: unlike getrusage it is exact over
// the millisecond-long slices it is read around.
func processCPU() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // a fixed, valid clock id and pointer cannot fail
	}
	return float64(ts.Nano())
}

// cpuMask is a scheduler affinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func oneCPU(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

// cpus lists the CPUs in the mask, ascending.
func (m cpuMask) cpus() []int {
	var out []int
	for i, w := range m {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				out = append(out, i*64+b)
			}
		}
	}
	return out
}

// threadAffinity is the set of CPUs the calling OS thread may run on.
func threadAffinity() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0]))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// setThreadAffinity restricts the calling OS thread, and the children it
// starts from now on, which inherit the mask. The caller must hold
// runtime.LockOSThread.
func setThreadAffinity(m cpuMask) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0]))); e != 0 {
		return fmt.Errorf("sched_setaffinity(%v): %w", m.cpus(), e)
	}
	return nil
}

// procStatus reads one "Key:   value kB" line of /proc/<pid>/status.
func procStatus(pid int, key string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	kb, err := procStatus(pid, "VmHWM")
	return kb / 1024, err
}

// procCPU is another process's CPU use: total run time in nanoseconds summed
// over its threads' schedstat (falling back to utime+stime ticks from stat),
// the system share of it, and voluntary context switches.
type procCPU struct {
	runNs  float64
	userNs float64
	sysNs  float64
	volCtx float64
}

func readProcCPU(pid int) (procCPU, error) {
	var c procCPU
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	if len(tasks) == 0 {
		return c, fmt.Errorf("no /proc/%d/task", pid)
	}
	schedOK := true
	for _, t := range tasks {
		if raw, err := os.ReadFile(t + "/schedstat"); err == nil {
			if f := bytes.Fields(raw); len(f) >= 1 {
				ns, _ := strconv.ParseFloat(string(f[0]), 64)
				c.runNs += ns
				continue
			}
		}
		schedOK = false
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return c, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	if i := bytes.LastIndexByte(raw, ')'); i >= 0 {
		f := bytes.Fields(raw[i+1:])
		if len(f) > 12 {
			const tickNs = 1e9 / 100 // USER_HZ
			u, _ := strconv.ParseFloat(string(f[11]), 64)
			s, _ := strconv.ParseFloat(string(f[12]), 64)
			c.userNs, c.sysNs = u*tickNs, s*tickNs
		}
	}
	if !schedOK || c.runNs == 0 {
		c.runNs = c.userNs + c.sysNs
	}
	for _, t := range tasks {
		if raw, err := os.ReadFile(t + "/status"); err == nil {
			for _, line := range strings.Split(string(raw), "\n") {
				if rest, ok := strings.CutPrefix(line, "voluntary_ctxt_switches:"); ok {
					v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
					c.volCtx += v
				}
			}
		}
	}
	return c, nil
}

// environment is recorded with every run output.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Link       string `json:"link"`
}

func readEnvironment() environment {
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		Link:       "loopback",
	}
}
