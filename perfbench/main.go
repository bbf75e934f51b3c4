// Command perfbench is the repository's benchmark. It starts the real
// predictd binary as a child process, drives one seeded workload against it
// over loopback HTTP, checks every answer, and prints each metric by name
// with its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 a
// shorter HTTP run feeds the /stats-derived counters, and the workload's
// seeded inputs are then replayed in-process with spans around the calls
// into each layer; the metrics are the per-layer ones.
//
// Workloads:
//
//	warm      open loop of cache-hit predictions at 500 req/s plus a max_rps ladder
//	cold      closed loop of cache-miss predictions, beside a 50 req/s warm probe
//	feedback  open loop of observe:predict 1:3 at 300 req/s over full windows
//
// It is built and run by run.sh from the repository root:
//
//	bash perfbench/run.sh --workload warm --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	predictd string
	workdir  string
	outdir   string
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: warm, cold or feedback")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every generated input derives from it")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced in-process replay")
	flag.StringVar(&cfg.predictd, "predictd", "", "path of the predictd binary")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for history files and other scratch files")
	flag.StringVar(&cfg.outdir, "outdir", "", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = trace != 0
	if err := runMain(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func runMain(cfg config) error {
	switch {
	case cfg.workload != "warm" && cfg.workload != "cold" && cfg.workload != "feedback":
		return fmt.Errorf("unknown workload %q (want warm, cold or feedback)", cfg.workload)
	case cfg.seconds < 1:
		return fmt.Errorf("-seconds must be positive")
	case cfg.predictd == "" || cfg.workdir == "" || cfg.outdir == "":
		return fmt.Errorf("-predictd, -workdir and -outdir are required")
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if cfg.workdir, err = filepath.Abs(dir); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	r := &run{cfg: cfg, ctx: ctx}

	total := time.Duration(cfg.seconds) * time.Second
	var res *workloadResult
	if cfg.trace {
		// Half the measured time feeds the /stats-derived counters over
		// HTTP, half replays the inputs in-process under the tracer.
		total /= 2
	}
	switch cfg.workload {
	case "warm":
		ladder := total / 2
		if cfg.trace {
			ladder = 0
		}
		res, err = r.runWarm(total-ladder, ladder)
	case "cold":
		res, err = r.runCold(total)
	case "feedback":
		res, err = r.runFeedback(total)
	}
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := r.traced(res, total); err != nil {
			return err
		}
	}
	r.printReport(os.Stdout, r.setupTimes)
	if err := r.checkDeclared("BENCHMARK.json"); err != nil {
		return err
	}
	line, err := r.resultLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupCount is how many setups a run makes: several for a steady
// setup_s, one for a traced run.
func (r *run) setupCount() int {
	if r.cfg.trace {
		return 1
	}
	return setupRuns
}

// checkDeclared fails the run when the metrics it reports are not exactly
// the ones the benchmark declares for its mode, so the code and the
// declaration cannot drift apart.
func (r *run) checkDeclared(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var d struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := d.EndToEnd
	if r.cfg.trace {
		want = d.PerLayer
	}
	got := make(map[string]string, len(r.metrics))
	for _, m := range r.metrics {
		got[m.Name] = m.Unit
	}
	for _, w := range want {
		unit, ok := got[w.Name]
		if !ok || unit != w.Unit {
			return fmt.Errorf("%s declares %s in %s; the run reported %q", path, w.Name, w.Unit, unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("the run reported %d metrics, %s declares %d", len(got), path, len(want))
	}
	return nil
}
