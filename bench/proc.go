package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux configuration Go supports.
const clockTicks = 100

// procMemKB returns a process's current (VmRSS) and peak (VmHWM)
// resident set size in KiB.
func procMemKB(pid int) (rss, hwm int64, err error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		switch fields[0] {
		case "VmRSS:":
			rss, err = strconv.ParseInt(fields[1], 10, 64)
		case "VmHWM:":
			hwm, err = strconv.ParseInt(fields[1], 10, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/%d/status: %w", pid, err)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if hwm == 0 {
		return 0, 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
	}
	return rss, hwm, nil
}

// procCPU returns a process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from its closing parenthesis. utime and stime are fields
	// 14 and 15.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user plus system CPU time at
// microsecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
