package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one predictd child process listening on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // host:port
	histDir string
	logMu   sync.Mutex
	log     bytes.Buffer
	exited  chan struct{}
	waitErr error
}

// startDaemon launches predictd with -history in a fresh directory under
// workdir and waits until it reports its listening address.
func startDaemon(bin, workdir string) (*daemon, error) {
	dir, err := os.MkdirTemp(workdir, "predictd-")
	if err != nil {
		return nil, err
	}
	d := &daemon{histDir: dir, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-history", filepath.Join(dir, "history.jsonl"))
	d.cmd.Dir = dir
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stdout = io.Discard
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting predictd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 && !strings.Contains(line, "pprof") {
				select {
				case addrc <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("predictd exited before listening: %v\n%s", d.waitErr, d.logText())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("predictd did not report its address\n%s", d.logText())
	}
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop terminates predictd and waits for it to exit: SIGTERM drains it,
// and SIGKILL follows if the drain has not finished in time.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited, which the wait below observes
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}
