package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the unit of the tick counts in /proc/<pid>/stat. The kernel
// exports them in USER_HZ, which is 100 on every Linux ABI.
const userHZ = 100

// cpuTime is user and system CPU consumed by a process so far.
type cpuTime struct{ user, sys time.Duration }

func (c cpuTime) total() time.Duration { return c.user + c.sys }

func (c cpuTime) sub(o cpuTime) cpuTime { return cpuTime{c.user - o.user, c.sys - o.sys} }

// parseProcStat extracts utime and stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The command name (field 2) may itself
// contain spaces and parentheses, so fields are counted from the last
// ')'.
func parseProcStat(b []byte) (cpuTime, error) {
	end := bytes.LastIndexByte(b, ')')
	if end < 0 {
		return cpuTime{}, fmt.Errorf("proc stat: no command field in %q", b)
	}
	fields := strings.Fields(string(b[end+1:]))
	// fields[0] is field 3 (state), so utime and stime are at 11 and 12.
	if len(fields) < 13 {
		return cpuTime{}, fmt.Errorf("proc stat: %d fields after the command, need 13", len(fields))
	}
	ut, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return cpuTime{}, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return cpuTime{}, fmt.Errorf("proc stat: stime: %w", err)
	}
	tick := time.Second / userHZ
	return cpuTime{user: time.Duration(ut) * tick, sys: time.Duration(st) * tick}, nil
}

// parseVmHWM extracts the peak resident set size, in kB, from the
// contents of /proc/<pid>/status.
func parseVmHWM(status []byte) (uint64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// parseSchedstat extracts the first field of a /proc/<pid>/task/<tid>/
// schedstat file: nanoseconds the task has spent on a CPU.
func parseSchedstat(b []byte) (time.Duration, error) {
	fields := strings.Fields(string(b))
	if len(fields) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields, want 3", len(fields))
	}
	ns, err := strconv.ParseUint(fields[0], 10, 63)
	if err != nil {
		return 0, fmt.Errorf("schedstat: run time: %w", err)
	}
	return time.Duration(ns), nil
}

// procCPU reads the CPU another process has consumed. The user/system
// split comes from /proc/<pid>/stat, but its tick counts are sampled:
// a daemon that runs for 30 µs every millisecond is charged a whole
// 10 ms tick whenever the timer happens to catch it, which over a 20 s
// window is ±10 % of noise. So the total is taken from the scheduler's
// own nanosecond accounting (the schedstat of every thread) when the
// kernel exports it, and the tick counts only apportion it.
func procCPU(pid int) (cpuTime, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTime{}, err
	}
	ticks, err := parseProcStat(b)
	if err != nil {
		return cpuTime{}, err
	}
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 || ticks.total() == 0 {
		return ticks, nil
	}
	var run time.Duration
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		d, err := parseSchedstat(b)
		if err != nil {
			return ticks, nil // no scheduler accounting on this kernel
		}
		run += d
	}
	user := time.Duration(float64(run) * float64(ticks.user) / float64(ticks.total()))
	return cpuTime{user: user, sys: run - user}, nil
}

// procPeakRSSMB reads a process's peak resident set size in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(b)
	return float64(kb) / 1024, err
}

// selfCPU reads this process's CPU from getrusage, which has
// microsecond resolution where /proc/self/stat has 10 ms ticks.
func selfCPU() (cpuTime, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return cpuTime{user: tv(ru.Utime), sys: tv(ru.Stime)}, nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if key, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}
