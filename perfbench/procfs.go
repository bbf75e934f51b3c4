package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns user+system CPU time from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	// After the command name: state is field 3, utime field 14, stime 15.
	const utime, stime = 14 - 3, 15 - 3
	if len(f) <= stime {
		return 0, fmt.Errorf("procfs: stat line has %d fields after the command", len(f))
	}
	u, err := strconv.ParseUint(f[utime], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	s, err := strconv.ParseUint(f[stime], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return time.Duration(u+s) * time.Second / clockTicks, nil
}

// parseStatusKB returns the value in kB of a field such as "VmHWM" from
// the contents of /proc/<pid>/status.
func parseStatusKB(status, field string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: malformed %s line %q", field, sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("procfs: no %s field", field)
}

// processCPU reads a process's cumulative user+system CPU time.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// processPeakRSS reads a process's peak resident set size (VmHWM) in bytes.
func processPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmHWM")
	return kb * 1024, err
}
