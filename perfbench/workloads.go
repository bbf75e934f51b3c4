package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"predict/internal/history"
)

// setupRuns is how many times a run sets the workload up from a fresh
// predictd; setup_s is their median.
const setupRuns = 7

// latencyLimitMs is the warm p99 limit of the max_rps ladder.
const latencyLimitMs = 10

// Nominal open-loop rates, in requests per second.
const (
	warmRate     = 500
	probeRate    = 50
	feedbackRate = 300
	statsRate    = 2 // /stats samples on the cold workload's probe connection
)

// setups launches predictd and runs prewarm on it n times, each from a
// fresh history directory, and returns the last daemon still running
// together with a two-connection client and each setup's duration (from
// launch to the end of prewarm).
func (r *run) setups(n int, prewarm func(c *client) error) (*daemon, *client, []time.Duration, error) {
	var times []time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		d, err := startDaemon(r.cfg.predictd, r.cfg.workdir)
		if err != nil {
			return nil, nil, nil, err
		}
		c := newClient(d.addr, 2)
		if err := prewarm(c); err != nil {
			c.close()
			d.stop()
			return nil, nil, nil, fmt.Errorf("setup: %w\n%s", err, d.logText())
		}
		times = append(times, time.Since(start))
		if i == n-1 {
			return d, c, times, nil
		}
		c.close()
		d.stop()
		_ = os.RemoveAll(d.histDir) // scratch space; the run directory is removed at exit anyway
	}
	panic("unreachable")
}

// reportSetup adds setup_s, the median setup duration.
func (r *run) reportSetup(times []time.Duration) {
	s := make([]float64, len(times))
	for i, t := range times {
		s[i] = t.Seconds()
	}
	r.add("setup_s", "s", median(s), fmt.Sprintf("median of %d setups", len(s)))
}

// measure runs one phase and accounts for it, with /stats deltas taken on
// c around it.
func (r *run) measure(c *client, p *phase, fn func() ([]outcome, []bool)) ([]outcome, error) {
	before, err := fetchStats(r.ctx, c)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out, bad := fn()
	p.elapsed = time.Since(start)
	after, err := fetchStats(r.ctx, c)
	if err != nil {
		return nil, err
	}
	p.stats = diffStats(before, after)
	p.account(out, bad)
	r.phases = append(r.phases, p)
	return out, nil
}

// cpuSampler reads predictd's CPU time at the start of a phase and then
// every window of the phase, so CPU per operation can be taken per window.
type cpuSampler struct {
	pid     int
	start   time.Time
	stop    chan struct{}
	done    chan struct{}
	at      []time.Duration
	cpu     []time.Duration
	readErr error
}

// startCPUSampler samples every dur/maxWindows until finish.
func startCPUSampler(pid int, dur time.Duration) (*cpuSampler, error) {
	s := &cpuSampler{pid: pid, start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	if err := s.sample(); err != nil {
		return nil, err
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(dur / maxWindows)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if err := s.sample(); err != nil {
					s.readErr = err
					return
				}
			}
		}
	}()
	return s, nil
}

func (s *cpuSampler) sample() error {
	c, err := processCPU(s.pid)
	if err != nil {
		return err
	}
	s.at = append(s.at, time.Since(s.start))
	s.cpu = append(s.cpu, c)
	return nil
}

// finishCPU stops the sampler, takes a last sample, and reports predictd's
// CPU microseconds per completed operation: the median over the windows
// of each window's CPU time over the operations that completed in it.
// done holds the completion times of the successful operations the CPU is
// charged to, and what names them.
func (r *run) finishCPU(s *cpuSampler, done []time.Duration, what string) error {
	close(s.stop)
	<-s.done
	if s.readErr != nil {
		return s.readErr
	}
	if err := s.sample(); err != nil {
		return err
	}
	ops := make([]int, len(s.at)-1)
	for i := range ops {
		for _, d := range done {
			if d >= s.at[i] && d < s.at[i+1] {
				ops[i]++
			}
		}
	}
	return r.reportCPU(s.cpu, ops, what)
}

// reportCPU adds cpu_us_per_op from predictd's cumulative CPU time at the
// bounds of consecutive windows (cpu[i] and cpu[i+1] enclose window i)
// and the operations completed in each: the median over the windows of
// each window's CPU time over its operations.
func (r *run) reportCPU(cpu []time.Duration, ops []int, what string) error {
	var per []float64
	n := 0
	for i, k := range ops {
		if k > 0 {
			per = append(per, float64(cpu[i+1]-cpu[i])/float64(time.Microsecond)/float64(k))
			n += k
		}
	}
	if len(per) == 0 {
		return fmt.Errorf("no completed operations to charge CPU to")
	}
	total := cpu[len(ops)] - cpu[0]
	r.add("cpu_us_per_op", "us", median(per), fmt.Sprintf("median over %d windows; %v CPU over %d %s",
		len(per), total.Round(time.Millisecond), n, what))
	return nil
}

// doneTimes returns the completion times of the successful outcomes.
func doneTimes(out []outcome) []time.Duration {
	var d []time.Duration
	for i := range out {
		if out[i].ok() {
			d = append(d, out[i].done)
		}
	}
	return d
}

func (r *run) peakRSS(d *daemon) error {
	rss, err := processPeakRSS(d.pid())
	if err != nil {
		return err
	}
	// Printed, not bounded: the high-water mark moves with GC timing.
	r.addInfo("peak_rss_mb", "MB", float64(rss)/(1<<20), "predictd VmHWM")
	return nil
}

// postChecked sends one request outside a phase, counting it as an
// attempted operation; check may fail it.
func (r *run) postChecked(c *client, path string, body []byte) ([]byte, bool) {
	b, err := c.post(r.ctx, path, body)
	if err != nil {
		r.problem("%v", err)
		r.checked(false)
		return nil, false
	}
	r.checked(true)
	return b, true
}

// runWarm is the warm workload: every query hits a model fitted during
// setup, so the time goes to HTTP, the caches, the coalescer and
// extrapolation.
func (r *run) runWarm(mainDur time.Duration, ladderBudget time.Duration) (*workloadResult, error) {
	gs := graphs{}
	var refKeys []predictKey
	for _, s := range warmScales {
		for _, a := range warmAlgorithms {
			refKeys = append(refKeys, predictKey{Dataset: "Wiki", Scale: s, Algorithm: a})
		}
	}
	act, err := actuals(gs, refKeys)
	if err != nil {
		return nil, err
	}

	d, c, setupTimes, err := r.setups(r.setupCount(), func(c *client) error {
		for _, k := range refKeys {
			if _, err := c.post(r.ctx, "/predict", k.body()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	defer c.close()
	r.setupTimes = setupTimes
	r.reportSetup(setupTimes)

	due := arrivals(newRNG(r.cfg.seed, streamArrivals), warmRate, mainDur)
	keys := warmKeys(newRNG(r.cfg.seed, streamKeys), len(due))
	id := newIdentity()
	cpu, err := startCPUSampler(d.pid(), mainDur)
	if err != nil {
		return nil, err
	}
	p := &phase{name: "warm", loop: "open", rate: warmRate, conns: c.conns}
	out, err := r.measure(c, p, func() ([]outcome, []bool) {
		return r.warmOpen(c, due, keys, mainDur, id)
	})
	if err != nil {
		return nil, err
	}
	if err := r.finishCPU(cpu, doneTimes(out), "warm predictions"); err != nil {
		return nil, err
	}
	r.addWarmLatency(latencies(out, nil))

	if ladderBudget > 0 {
		if err := r.ladder(c, ladderBudget, id); err != nil {
			return nil, err
		}
	}

	// Accuracy against full-graph runs, and the in-process reference on a
	// fixed key subset (one at the large scale with a what-if worker count).
	var rtErr, itErr []float64
	for _, k := range refKeys {
		b, ok := r.postChecked(c, "/predict", k.body())
		if !ok {
			continue
		}
		a, err := parseAnswer(b)
		if err != nil {
			return nil, err
		}
		ar := act[actualKey(k)]
		rtErr = append(rtErr, relErrPct(a.SuperstepSeconds, ar.seconds))
		itErr = append(itErr, relErrPct(float64(a.Iterations), float64(ar.iterations)))
	}
	r.addAccuracy(rtErr, itErr)
	for _, k := range []predictKey{refKeys[0], {Dataset: "Wiki", Scale: 1, Algorithm: "NH", Workers: 16}} {
		if b, ok := r.postChecked(c, "/predict", k.body()); ok {
			r.compareReference(gs, k, b, nil)
		}
	}
	if err := r.peakRSS(d); err != nil {
		return nil, err
	}
	return &workloadResult{keys: keys, stats: p.stats}, nil
}

// warmOpen sends the warm queries as an open loop and checks each answer:
// a cache hit, byte-identical to earlier answers to the same query.
func (r *run) warmOpen(c *client, due []time.Duration, keys []predictKey, dur time.Duration, id *identity) ([]outcome, []bool) {
	reqs := make([]request, len(due))
	for i := range reqs {
		reqs[i] = request{due: due[i], path: "/predict", body: keys[i].body()}
	}
	bad := make([]bool, len(reqs))
	out := c.runOpen(r.ctx, reqs, dur+time.Second, func(i int, o *outcome, body []byte) {
		bad[i] = !r.checkWarm(o, keys[i], body, id, false)
	})
	return out, bad
}

var cacheHitTrue = []byte(`"cache_hit":true`)

// checkWarm checks one answer to a query whose model was fitted during
// setup: a cache hit, byte-identical to earlier answers to the same query.
// With mayMiss, the model may since have been evicted (the cold workload's
// fits churn the model cache): a miss must then still answer as the
// cached answers do apart from cache_hit.
func (r *run) checkWarm(o *outcome, k predictKey, body []byte, id *identity, mayMiss bool) bool {
	if !r.checkStatus(o, "warm "+k.String(), body) {
		return false
	}
	if !bytes.Contains(body, cacheHitTrue) {
		if !mayMiss {
			r.problem("warm %s: not a cache hit: %s", k, body)
			return false
		}
		body = bytes.Replace(body, []byte(`"cache_hit":false`), cacheHitTrue, 1)
	}
	if !id.check(k.String(), body) {
		r.problem("warm %s: answer differs from the first answer to the same query", k)
		return false
	}
	return true
}

// ladderRates is the fixed ladder of offered warm rates, 8% apart.
func ladderRates() []float64 {
	var out []float64
	for x := 400.0; x <= 12000; x *= 1.08 {
		out = append(out, float64(int(x)))
	}
	return out
}

// ladder finds max_rps: the highest ladder rate whose warm p99 stays
// under latencyLimitMs while the generator's lateness does not grow. It
// bisects the ladder within budget.
func (r *run) ladder(c *client, budget time.Duration, id *identity) error {
	rates := ladderRates()
	lo, hi := -1, len(rates) // rates[lo] passed, rates[hi] failed
	deadline := time.Now().Add(budget)
	p := &phase{name: "ladder", loop: "open", conns: c.conns}
	var steps []string
	for hi-lo > 1 && time.Now().Before(deadline) {
		mid := (lo + hi) / 2
		rate := rates[mid]
		dur := time.Duration(float64(time.Second) * max(1, float64(windowSize(0.99))/rate))
		due := arrivals(newRNG(r.cfg.seed, streamArrivals+uint64(100+mid)), rate, dur)
		keys := warmKeys(newRNG(r.cfg.seed, streamKeys+uint64(100+mid)), len(due))
		step := &phase{name: "step", loop: "open", rate: rate, conns: c.conns}
		out, err := r.measure(c, step, func() ([]outcome, []bool) {
			return r.warmOpen(c, due, keys, dur, id)
		})
		if err != nil {
			return err
		}
		r.phases = r.phases[:len(r.phases)-1] // folded into the ladder's account below
		p.attempted += step.attempted
		p.succeeded += step.succeeded
		p.failed += step.failed
		p.shed += step.shed
		p.elapsed += step.elapsed
		p.lateP50 = max(p.lateP50, step.lateP50) // the ladder reports its worst step
		p.lateMax = max(p.lateMax, step.lateMax)
		ms := latencies(out, nil)
		p99 := percentile(ms, 0.99)
		pass := step.attempted == len(due) && step.failed == 0 && p99 <= latencyLimitMs && !lateGrows(out)
		steps = append(steps, fmt.Sprintf("%.0f:%.1fms:%v", rate, p99, pass))
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	r.phases = append(r.phases, p)
	v := 0.0
	if lo >= 0 {
		v = rates[lo]
	}
	r.addInfo("max_rps", "1/s", v, fmt.Sprintf("warm p99 <= %dms; steps %v", latencyLimitMs, steps))
	return nil
}

// lateGrows reports whether the generator fell behind during a step: the
// mean lateness of the last quarter of requests exceeds the first
// quarter's by more than a millisecond.
func lateGrows(out []outcome) bool {
	q := len(out) / 4
	if q == 0 {
		return false
	}
	avg := func(os []outcome) float64 {
		var t float64
		for _, o := range os {
			t += o.late.Seconds()
		}
		return t / float64(len(os))
	}
	return avg(out[len(out)-q:])-avg(out[:q]) > 0.001
}

// addAccuracy reports the median relative errors of predictions against
// actual full-graph runs. The runtime error is printed, not bounded: on
// feedback it follows the seed's noise draws too closely to hold a bound.
func (r *run) addAccuracy(rtErr, itErr []float64) {
	r.addInfo("runtime_error_pct", "%", median(rtErr), fmt.Sprintf("median over %d predictions", len(rtErr)))
	r.add("iterations_error_pct", "%", median(itErr), fmt.Sprintf("median over %d predictions", len(itErr)))
}

// workloadResult carries what the traced replay needs from a workload's
// HTTP run: its seeded inputs and the /stats-derived counters.
type workloadResult struct {
	keys      []predictKey
	stats     statsDelta
	depth     []float64 // fit_queue_depth samples
	feedback  []feedbackOp
	modelKeys []string
	prefill   [][]float64
}

// runCold is the cold workload: a closed loop of predictions that each miss
// the model cache, beside an open-loop warm probe on a second connection.
func (r *run) runCold(dur time.Duration) (*workloadResult, error) {
	gs := graphs{}
	var refKeys []predictKey
	for _, d := range coldDatasets {
		for _, w := range coldWeights {
			refKeys = append(refKeys, predictKey{Dataset: d, Scale: coldScale, Algorithm: w.alg})
		}
	}
	act, err := actuals(gs, refKeys)
	if err != nil {
		return nil, err
	}
	probes := probeKeys()
	d, c, setupTimes, err := r.setups(r.setupCount(), func(c *client) error {
		for _, k := range probes {
			if _, err := c.post(r.ctx, "/predict", k.body()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	defer c.close()
	r.setupTimes = setupTimes
	r.reportSetup(setupTimes)

	// The cold loop and the probe each get one connection of their own.
	coldC, probeC := newClient(d.addr, 1), newClient(d.addr, 1)
	defer coldC.close()
	defer probeC.close()

	cold := coldKeys(newRNG(r.cfg.seed, streamKeys), r.cfg.seed, 20000)
	coldReqs := make([]request, len(cold))
	for i, k := range cold {
		coldReqs[i] = request{path: "/predict", body: k.body()}
	}
	// The probe's queries and the /stats samples that ride its connection
	// merge into one schedule by due time.
	due := arrivals(newRNG(r.cfg.seed, streamArrivals), probeRate, dur)
	pr := newRNG(r.cfg.seed, streamProbe)
	var probeReqs []request
	var probeQ []predictKey
	var isStats []bool
	next := time.Duration(0)
	for i := 0; i < len(due) || next < dur; {
		if i == len(due) || (next < dur && next <= due[i]) {
			probeReqs = append(probeReqs, request{due: next, path: "/stats"})
			probeQ = append(probeQ, predictKey{})
			isStats = append(isStats, true)
			next += time.Second / statsRate
			continue
		}
		k := probes[pr.IntN(len(probes))]
		k.Workers = whatIfWorkers[pr.IntN(len(whatIfWorkers))]
		probeReqs = append(probeReqs, request{due: due[i], path: "/predict", body: k.body()})
		probeQ = append(probeQ, k)
		isStats = append(isStats, false)
		i++
	}

	// predictd's CPU time at the start and after each block of the cold
	// schedule, whose algorithm mix is fixed, so the CPU is charged block by
	// block and a block's share of slow fits does not vary.
	cpu0, err := processCPU(d.pid())
	if err != nil {
		return nil, err
	}
	blockCPU := []time.Duration{cpu0}
	var cpuErr error
	block := len(coldBlock())
	coldP := &phase{name: "cold", loop: "closed", conns: 1}
	probeP := &phase{name: "probe", loop: "open", rate: probeRate, conns: 1}
	answers := make([]answer, len(cold))
	var probeOut []outcome
	var probeBad []bool
	depth := make([]float64, 0, len(probeReqs))
	var depthMu sync.Mutex
	id := newIdentity()
	coldOut, err := r.measure(c, coldP, func() ([]outcome, []bool) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeBad = make([]bool, len(probeReqs))
			probeOut = probeC.runOpen(r.ctx, probeReqs, dur+time.Second, func(i int, o *outcome, body []byte) {
				if isStats[i] {
					var v struct {
						Stats struct {
							FitQueueDepth float64 `json:"fit_queue_depth"`
						} `json:"stats"`
					}
					if o.ok() && json.Unmarshal(body, &v) == nil {
						depthMu.Lock()
						depth = append(depth, v.Stats.FitQueueDepth)
						depthMu.Unlock()
					}
					return
				}
				probeBad[i] = !r.checkWarm(o, probeQ[i], body, id, true)
			})
		}()
		bad := make([]bool, len(coldReqs))
		out := coldC.runClosed(r.ctx, coldReqs, dur, func(i int, o *outcome, body []byte) {
			bad[i] = !r.checkCold(o, cold[i], body, &answers[i])
			if (i+1)%block == 0 && cpuErr == nil {
				var c time.Duration
				if c, cpuErr = processCPU(d.pid()); cpuErr == nil {
					blockCPU = append(blockCPU, c)
				}
			}
		})
		wg.Wait()
		return out, bad[:len(out)]
	})
	if err != nil {
		return nil, err
	}
	// The /stats samples are not operations of the probe.
	for i := range probeOut {
		if isStats[i] {
			probeOut[i].sent = false
		}
	}
	probeP.elapsed = coldP.elapsed
	probeP.account(probeOut, probeBad)
	r.phases = append(r.phases, probeP)
	// The CPU is charged to the cold fits alone: the probe's cache hits cost
	// about a hundredth of it but outnumber the fits, so counting them would
	// make the figure follow the fit rate, not the cost of a fit.
	if cpuErr != nil {
		return nil, cpuErr
	}
	fits := make([]int, len(blockCPU)-1)
	for i := range fits {
		for _, o := range coldOut[i*block : (i+1)*block] {
			if o.ok() {
				fits[i]++
			}
		}
	}
	if err := r.reportCPU(blockCPU, fits, "cold fits in whole blocks (probe CPU included)"); err != nil {
		return nil, err
	}

	r.addWarmLatency(latencies(probeOut, func(i int) bool { return !isStats[i] }))
	coldMs := latencies(coldOut, nil)
	r.addLatency("cold_fit", coldMs, 0.95, "p95")
	r.addInfo("cold_fits_per_s", "1/s", float64(coldP.succeeded)/coldP.elapsed.Seconds(), fmt.Sprintf("closed loop, 1 conn, %d fits", coldP.succeeded))

	var rtErr, itErr []float64
	for i := range coldOut {
		if !coldOut[i].ok() || answers[i].Iterations == 0 {
			continue
		}
		ar := act[actualKey(cold[i])]
		rtErr = append(rtErr, relErrPct(answers[i].SuperstepSeconds, ar.seconds))
		itErr = append(itErr, relErrPct(float64(answers[i].Iterations), float64(ar.iterations)))
	}
	r.addAccuracy(rtErr, itErr)

	// In-process reference for the first cold queries of the schedule.
	for i := 0; i < 3 && i < len(coldOut); i++ {
		if coldOut[i].ok() && !r.compareAnswer(gs, cold[i], answers[i], nil) {
			coldP.failed++
			coldP.succeeded--
		}
	}
	if err := r.peakRSS(d); err != nil {
		return nil, err
	}
	return &workloadResult{keys: cold[:len(coldOut)], stats: coldP.stats, depth: depth}, nil
}

// checkCold checks one answer to a query whose model is not cached yet.
func (r *run) checkCold(o *outcome, k predictKey, body []byte, a *answer) bool {
	if !r.checkStatus(o, "cold "+k.String(), body) {
		return false
	}
	var err error
	if *a, err = parseAnswer(body); err != nil {
		r.problem("cold %s: decoding answer: %v", k, err)
		return false
	}
	// A zero runtime is a model-quality defect, not a serving fault: the
	// in-process reference check and runtime_error_pct judge the number.
	if a.CacheHit || a.BlendRegime != "extrapolation" || a.Iterations <= 0 || !(a.SuperstepSeconds >= 0) {
		r.problem("cold %s: want a fresh extrapolation-regime fit, got %s", k, body)
		return false
	}
	return true
}

// heldOutDraws is how many held-out noisy runs per key judge p95 coverage.
const heldOutDraws = 1000

// runFeedback is the feedback workload: observes and predictions 1:3 on
// keys whose observation windows are full, so every prediction refits
// and every observation is a durable append.
func (r *run) runFeedback(dur time.Duration) (*workloadResult, error) {
	gs := graphs{}
	keys := feedbackKeys()
	act, err := actuals(gs, keys)
	if err != nil {
		return nil, err
	}
	// Each key's hidden target is its actual full-graph runtime; observed
	// runs scatter around it.
	targets := make([]float64, len(keys))
	prefill := make([][]float64, len(keys))
	heldOut := make([][]float64, len(keys))
	pre, held := newRNG(r.cfg.seed, streamPrefill), newRNG(r.cfg.seed, streamHeldOut)
	for i, k := range keys {
		targets[i] = act[actualKey(k)].seconds
		for j := 0; j < history.MaxObservationsPerKey; j++ {
			prefill[i] = append(prefill[i], noisy(pre, targets[i]))
		}
		for j := 0; j < heldOutDraws; j++ {
			heldOut[i] = append(heldOut[i], noisy(held, targets[i]))
		}
	}

	modelKeys := make([]string, len(keys))
	d, c, setupTimes, err := r.setups(r.setupCount(), func(c *client) error {
		for i, k := range keys {
			b, err := c.post(r.ctx, "/predict", k.body())
			if err != nil {
				return err
			}
			a, err := parseAnswer(b)
			if err != nil {
				return err
			}
			modelKeys[i] = a.ModelKey
		}
		for i := range keys {
			for _, v := range prefill[i] {
				if _, err := c.post(r.ctx, "/observe", observeBody(modelKeys[i], v)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	defer c.close()
	r.setupTimes = setupTimes
	r.reportSetup(setupTimes)

	// The answer with exactly the prefilled window, for the reference check.
	var refBodies [][]byte
	for _, k := range keys {
		b, _ := r.postChecked(c, "/predict", k.body())
		refBodies = append(refBodies, b)
	}

	due := arrivals(newRNG(r.cfg.seed, streamArrivals), feedbackRate, dur)
	ops := feedbackOps(newRNG(r.cfg.seed, streamKeys), targets, len(due))
	reqs := make([]request, len(due))
	for i, op := range ops {
		if op.observe {
			reqs[i] = request{due: due[i], path: "/observe", body: observeBody(modelKeys[op.key], op.actual)}
		} else {
			reqs[i] = request{due: due[i], path: "/predict", body: keys[op.key].body()}
		}
	}
	answers := make([]answer, len(reqs))
	cpu, err := startCPUSampler(d.pid(), dur)
	if err != nil {
		return nil, err
	}
	p := &phase{name: "feedback", loop: "open", rate: feedbackRate, conns: c.conns}
	out, err := r.measure(c, p, func() ([]outcome, []bool) {
		bad := make([]bool, len(reqs))
		out := c.runOpen(r.ctx, reqs, dur+time.Second, func(i int, o *outcome, body []byte) {
			bad[i] = !r.checkFeedback(o, ops[i], keys[ops[i].key], body, &answers[i])
		})
		return out, bad
	})
	if err != nil {
		return nil, err
	}
	if err := r.finishCPU(cpu, doneTimes(out), "observes and predictions"); err != nil {
		return nil, err
	}

	isObserve := func(i int) bool { return ops[i].observe }
	r.addWarmLatency(latencies(out, func(i int) bool { return !isObserve(i) }))
	r.addLatency("observe", latencies(out, isObserve), 0.99, "p99")

	// Accuracy against the actual runs, and p95 coverage of held-out runs.
	var rtErr, itErr []float64
	var covered, judged float64
	for i := range out {
		if ops[i].observe || !out[i].ok() || answers[i].Iterations == 0 {
			continue
		}
		k := ops[i].key
		ar := act[actualKey(keys[k])]
		rtErr = append(rtErr, relErrPct(answers[i].SuperstepSeconds, ar.seconds))
		itErr = append(itErr, relErrPct(float64(answers[i].Iterations), float64(ar.iterations)))
		for _, v := range heldOut[k] {
			if v <= answers[i].P95Seconds {
				covered++
			}
		}
		judged += float64(len(heldOut[k]))
	}
	r.addAccuracy(rtErr, itErr)
	coverage := covered / max(judged, 1)
	r.addInfo("p95_coverage_gap", "abs", math.Abs(coverage-0.95), fmt.Sprintf("coverage %.4f of %d held-out runs per key", coverage, heldOutDraws))

	for i, k := range keys {
		if refBodies[i] != nil {
			r.compareReference(gs, k, refBodies[i], prefill[i])
		}
	}
	if err := r.peakRSS(d); err != nil {
		return nil, err
	}
	return &workloadResult{keys: keys, stats: p.stats, feedback: ops, modelKeys: modelKeys, prefill: prefill}, nil
}

func observeBody(modelKey string, seconds float64) []byte {
	b, _ := json.Marshal(struct {
		ModelKey      string  `json:"model_key"`
		ActualSeconds float64 `json:"actual_seconds"`
	}{modelKey, seconds}) // cannot fail: a string and a finite float
	return b
}

// checkFeedback checks one answer of the feedback mix: observations must
// be durably persisted, predictions must answer from the full window.
func (r *run) checkFeedback(o *outcome, op feedbackOp, k predictKey, body []byte, a *answer) bool {
	what := "feedback predict " + k.String()
	if op.observe {
		what = "feedback observe " + k.String()
	}
	if !r.checkStatus(o, what, body) {
		return false
	}
	if op.observe {
		var v struct {
			Observations int    `json:"observations"`
			BlendRegime  string `json:"blend_regime"`
			Persisted    bool   `json:"persisted"`
		}
		if err := json.Unmarshal(body, &v); err != nil || !v.Persisted || v.Observations != history.MaxObservationsPerKey || v.BlendRegime != "interpolation" {
			r.problem("%s: want a persisted observation in a full window, got %s", what, body)
			return false
		}
		return true
	}
	var err error
	if *a, err = parseAnswer(body); err != nil {
		r.problem("%s: decoding answer: %v", what, err)
		return false
	}
	if !a.CacheHit || a.BlendRegime != "interpolation" || a.Observations != history.MaxObservationsPerKey || !(a.P95Seconds > a.SuperstepSeconds) {
		r.problem("%s: want an interpolation-regime hit over a full window, got %s", what, body)
		return false
	}
	return true
}
