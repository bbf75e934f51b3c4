package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command name holds a space and a parenthesis; utime=250, stime=50.
	stat := "4242 (pred ict)d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 9 0 100 123456 789 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("parseStatCPU = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("short stat line parsed")
	}
	if _, err := parseStatCPU("no parenthesis"); err == nil {
		t.Error("stat line without command parsed")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tpredictd\nVmPeak:\t  812345 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 51200 {
		t.Errorf("VmHWM = %d, %v; want 51200", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing field parsed")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("field in the wrong unit parsed")
	}
}

func TestOwnProcess(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := processCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if rss, err := processPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("peak RSS %d, %v", rss, err)
	}
}

func TestReportCPU(t *testing.T) {
	ms := time.Millisecond
	// Windows of 10ms over 1 op, 20ms over 4 ops and 0ms over none: the
	// empty window is skipped, and the median of 10000us and 5000us is
	// their mean.
	r := &run{}
	if err := r.reportCPU([]time.Duration{0, 10 * ms, 30 * ms, 30 * ms}, []int{1, 4, 0}, "ops"); err != nil {
		t.Fatal(err)
	}
	if len(r.metrics) != 1 || r.metrics[0].Name != "cpu_us_per_op" || r.metrics[0].Value != 7500 {
		t.Errorf("metrics %+v, want cpu_us_per_op 7500", r.metrics)
	}
	if err := (&run{}).reportCPU([]time.Duration{0, ms}, []int{0}, "ops"); err == nil {
		t.Error("no operations charged without an error")
	}
}
