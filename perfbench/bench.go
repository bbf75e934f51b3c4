package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"predict/internal/service"
)

// metric is one named measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string // sample count or definition, printed beside the value
}

// run holds everything one benchmark invocation measures and checks.
type run struct {
	cfg        config
	ctx        context.Context
	setupTimes []time.Duration

	metrics []metric // reported in the result line
	info    []metric // printed only: workload-specific end-to-end figures
	phases  []*phase
	ledger  []string // traced run: reconciliation of root spans

	mu       sync.Mutex
	problems []string // correctness failures, each also counted in a phase
	extraOps int      // checked requests outside phases
	extraBad int
}

func (r *run) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name, unit, v, note})
}

func (r *run) addInfo(name, unit string, v float64, note string) {
	r.info = append(r.info, metric{name, unit, v, note})
}

// problem records a correctness failure (at most a few are printed).
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checked counts one request made to check outputs outside a phase.
func (r *run) checked(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.extraOps++
	if !ok {
		r.extraBad++
	}
}

// markFailed fails a request checked() already counted as succeeded.
func (r *run) markFailed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.extraBad++
}

// phase is the account of one load phase.
type phase struct {
	name    string
	loop    string  // "open" or "closed"
	rate    float64 // nominal requests per second (open loop)
	conns   int
	elapsed time.Duration

	attempted, succeeded, failed, shed int
	lateP50, lateMax                   time.Duration
	stats                              statsDelta
}

// account tallies a phase's outcomes. bad marks outcomes that failed a
// correctness check, so they count as failed even with a 2xx status.
func (p *phase) account(out []outcome, bad []bool) {
	var late []float64
	for i := range out {
		o := &out[i]
		if !o.sent {
			continue
		}
		p.attempted++
		switch {
		case o.ok() && !bad[i]:
			p.succeeded++
		default:
			p.failed++
		}
		if o.shed() {
			p.shed++
		}
		if p.loop == "open" {
			late = append(late, o.late.Seconds())
			if o.late > p.lateMax {
				p.lateMax = o.late
			}
		}
	}
	p.lateP50 = time.Duration(median(late) * float64(time.Second))
}

// statsDelta is the change of predictd's /stats counters over a phase.
type statsDelta struct {
	requests, hits, misses, evictions, coalesced, fits, checkpoints, compactions, shed, observations int64
}

func diffStats(a, b service.Stats) statsDelta {
	return statsDelta{
		requests: b.Requests - a.Requests, hits: b.Hits - a.Hits, evictions: b.Evictions - a.Evictions, misses: b.Misses - a.Misses, coalesced: b.Coalesced - a.Coalesced,
		fits: b.Fits - a.Fits, checkpoints: b.CheckpointsWritten - a.CheckpointsWritten,
		compactions: b.Compactions - a.Compactions, shed: b.Shed - a.Shed,
		observations: b.Observations - a.Observations,
	}
}

func fetchStats(ctx context.Context, c *client) (service.Stats, error) {
	b, err := c.get(ctx, "/stats")
	if err != nil {
		return service.Stats{}, err
	}
	var v struct {
		Stats service.Stats `json:"stats"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return service.Stats{}, fmt.Errorf("decoding /stats: %w", err)
	}
	return v.Stats, nil
}

// checkStatus fails a transport error, a non-2xx answer, and a shed
// answer (429/503) that carries no Retry-After.
func (r *run) checkStatus(o *outcome, what string, body []byte) bool {
	switch {
	case o.shed() && !o.retryAfter:
		r.problem("%s: status %d without Retry-After", what, o.status)
	case o.err != nil:
		r.problem("%s: %v", what, o.err)
	case !o.ok():
		r.problem("%s: status %d: %s", what, o.status, body)
	default:
		return true
	}
	return false
}

// stripElapsed removes the "elapsed_ms" field, the only part of a
// prediction that may differ between two answers to the same request.
func stripElapsed(b []byte) []byte {
	const f = `"elapsed_ms":`
	i := bytes.Index(b, []byte(f))
	if i < 0 {
		return b
	}
	j := i + len(f)
	for j < len(b) && b[j] != ',' && b[j] != '}' {
		j++
	}
	out := append([]byte(nil), b[:i]...)
	if j < len(b) && b[j] == ',' {
		j++
	} else if len(out) > 0 && out[len(out)-1] == ',' {
		out = out[:len(out)-1]
	}
	return append(out, b[j:]...)
}

// identity checks that repeated answers to one request are byte-identical
// apart from elapsed_ms. It is safe for concurrent use.
type identity struct {
	mu    sync.Mutex
	first map[string][]byte
}

func newIdentity() *identity { return &identity{first: make(map[string][]byte)} }

// check records the first answer for key and compares later ones with it.
func (id *identity) check(key string, body []byte) bool {
	s := stripElapsed(body)
	id.mu.Lock()
	defer id.mu.Unlock()
	f, ok := id.first[key]
	if !ok {
		id.first[key] = bytes.Clone(s)
		return true
	}
	return bytes.Equal(f, s)
}

// answer is the part of a /predict response the checks read.
type answer struct {
	Iterations       int     `json:"iterations"`
	SuperstepSeconds float64 `json:"superstep_seconds"`
	P95Seconds       float64 `json:"p95_seconds"`
	ModelKey         string  `json:"model_key"`
	CacheHit         bool    `json:"cache_hit"`
	BlendRegime      string  `json:"blend_regime"`
	Observations     int     `json:"observations"`
}

func parseAnswer(b []byte) (answer, error) {
	var a answer
	err := json.Unmarshal(b, &a)
	return a, err
}

// latencies returns the latencies of successful outcomes in milliseconds,
// in completion order.
func latencies(out []outcome, keep func(i int) bool) []float64 {
	idx := make([]int, 0, len(out))
	for i := range out {
		if out[i].ok() && (keep == nil || keep(i)) {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return out[idx[a]].done < out[idx[b]].done })
	ms := make([]float64, len(idx))
	for k, i := range idx {
		ms[k] = float64(out[i].latency) / float64(time.Millisecond)
	}
	return ms
}

// quantile returns a windowed percentile of ms with a note stating its
// support.
func quantile(ms []float64, p float64) (float64, string) {
	v, windows := windowed(ms, p)
	if windows == 0 {
		return v, fmt.Sprintf("n=%d, fewer than %d samples beyond: unsupported", len(ms), minBeyond)
	}
	return v, fmt.Sprintf("n=%d, median over %d windows of >=%d", len(ms), windows, windowSize(p))
}

// addLatency prints the median and a tail percentile of a workload's own
// operation.
func (r *run) addLatency(prefix string, ms []float64, p float64, tailName string) {
	v, note := quantile(ms, 0.5)
	r.addInfo(prefix+"_p50_ms", "ms", v, note)
	v, note = quantile(ms, p)
	r.addInfo(prefix+"_"+tailName+"_ms", "ms", v, note)
}

// addWarmLatency reports the latency of cache-hit predictions: the median
// as a metric, and the p90 and the p99 (the highest percentile the sample
// supports) printed beside it. The tails move too much between seeds on a
// shared host to hold a bound: feedback's, for one, follows the fsync
// latency of observations queued on the same two connections.
func (r *run) addWarmLatency(ms []float64) {
	v, note := quantile(ms, 0.5)
	r.add("warm_p50_ms", "ms", v, note)
	v, note = quantile(ms, 0.90)
	r.addInfo("warm_p90_ms", "ms", v, note)
	v, note = quantile(ms, 0.99)
	r.addInfo("warm_p99_ms", "ms", v, note)
}

// hostFacts describes the machine and the history directory's filesystem.
func hostFacts(dir string) string {
	fs := "unknown"
	if b, err := os.ReadFile("/proc/self/mounts"); err == nil {
		best := "" // the longest mount point holding dir
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && strings.HasPrefix(dir, f[1]) && len(f[1]) > len(best) {
				best, fs = f[1], f[2]
			}
		}
	}
	return fmt.Sprintf("nproc=%d go=%s os=%s/%s history_fs=%s", runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, fs)
}

// printReport writes the human-readable account; the result line follows.
func (r *run) printReport(w io.Writer, setupTimes []time.Duration) {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%d trace=%v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	fmt.Fprintf(w, "host: %s\n", hostFacts(r.cfg.workdir))
	if len(setupTimes) > 0 {
		fmt.Fprintf(w, "setup runs: %v\n", setupTimes)
	}
	for _, p := range r.phases {
		fmt.Fprintf(w, "phase %-14s %s loop, %d conn(s)", p.name, p.loop, p.conns)
		if p.rate > 0 {
			fmt.Fprintf(w, ", nominal %.0f req/s", p.rate)
		}
		if p.loop == "open" {
			fmt.Fprintf(w, ", lateness p50 %v max %v", p.lateP50.Round(time.Microsecond), p.lateMax.Round(time.Microsecond))
		}
		fmt.Fprintf(w, ", %.2fs: attempted %d succeeded %d failed %d shed %d\n",
			p.elapsed.Seconds(), p.attempted, p.succeeded, p.failed, p.shed)
		s := p.stats
		fmt.Fprintf(w, "    /stats delta: hits %d misses %d evictions %d coalesced %d fits %d checkpoints_written %d compactions %d shed %d observations %d\n",
			s.hits, s.misses, s.evictions, s.coalesced, s.fits, s.checkpoints, s.compactions, s.shed, s.observations)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-34s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, m := range r.info {
		fmt.Fprintf(w, "info   %-34s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, l := range r.ledger {
		fmt.Fprintln(w, "ledger "+l)
	}
	att, fail := r.totals()
	fmt.Fprintf(w, "ops_attempted %d ops_failed %d\n", att, fail)
	for i, p := range r.problems {
		if i == 10 {
			fmt.Fprintf(w, "... %d more problems\n", len(r.problems)-10)
			break
		}
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

func (r *run) totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.attempted
		failed += p.failed
	}
	return attempted + r.extraOps, failed + r.extraBad
}

// resultLine is the final JSON line of standard output.
func (r *run) resultLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(r.metrics))
	for _, x := range r.metrics {
		m[x.Name] = value{x.Value, x.Unit}
	}
	att, fail := r.totals()
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, att, fail, m})
}
