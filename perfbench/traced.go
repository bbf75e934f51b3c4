package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/core"
	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/gen"
	"predict/internal/graph"
	"predict/internal/history"
	"predict/internal/parallel"
	"predict/internal/sampling"
	"predict/internal/service"
)

// replay re-runs a workload's seeded inputs in-process against a Service
// built with predictd's options. Each call into the service is a root
// span; right after it, the benchmark replays the call's stages through
// the layers' public functions as child spans, so the root's self time is
// the part of the service call the stages do not explain.
type replay struct {
	r      *run
	t      *Tracer
	svc    *service.Service
	gs     graphs
	http   *client
	dir    string
	pool   *parallel.Pool
	req    int
	fitted map[string]*core.Fitted // by model key, from the stage replay
	graph  map[string]*graph.Graph // by model key
	keyOf  map[string]predictKey   // by model key: the query that fitted it
	window map[string][]float64    // observation windows, as the service holds them
	hits   []hit
	scrap  string // history file the stage replay appends to
	// supersteps counts the sample-run supersteps of each replayed fit,
	// by request.
	supersteps map[int]int
}

// hit is one replayed prediction the service answered from its cache.
type hit struct {
	req     service.PredictRequest
	f       *core.Fitted
	g       *graph.Graph
	workers int
}

func toRequest(k predictKey) service.PredictRequest {
	return service.PredictRequest{Dataset: k.Dataset, Scale: k.Scale, Algorithm: k.Algorithm,
		Workers: k.Workers, SampleSeed: k.SampleSeed}
}

// traced replays the workload under the tracer and reports the per-layer
// metrics; the HTTP run's end-to-end figures are kept as information.
func (r *run) traced(res *workloadResult, budget time.Duration) error {
	for _, m := range r.metrics {
		m.Note = "HTTP run of the traced invocation; " + m.Note
		r.info = append(r.info, m)
	}
	r.metrics = nil

	dir := filepath.Join(r.cfg.workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svc := service.New(serviceConfig(filepath.Join(dir, "history.jsonl")))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close() // closes the listener; Serve then returns ErrServerClosed
		<-serveErr
	}()
	rp := &replay{
		r: r, t: NewTracer(), svc: svc, gs: graphs{}, http: newClient(ln.Addr().String(), 1), dir: dir,
		pool: parallel.NewPool(runtime.GOMAXPROCS(0)), fitted: make(map[string]*core.Fitted),
		graph: make(map[string]*graph.Graph), keyOf: make(map[string]predictKey), window: make(map[string][]float64),
		scrap: filepath.Join(dir, "stages.jsonl"), supersteps: make(map[int]int),
	}
	defer rp.http.close()

	deadline := time.Now().Add(budget / 2)
	switch r.cfg.workload {
	case "warm":
		err = rp.warm(res, deadline)
	case "cold":
		err = rp.cold(res, deadline)
	case "feedback":
		err = rp.feedback(res, deadline)
	}
	if err != nil {
		return err
	}
	if err := rp.probes(); err != nil {
		return err
	}
	if err := rp.report(res); err != nil {
		return err
	}
	// One file per workload: the latest traced run replaces the previous one.
	out := filepath.Join(r.cfg.outdir, "trace-"+r.cfg.workload+".jsonl")
	return rp.t.WriteFile(out)
}

// graphFor returns the graph of a query. The first query on a graph makes
// the service generate it inside the root call, so the replay generates
// it too, under gen/graph spans that are children of that root.
func (rp *replay) graphFor(parent int, dataset string, scale float64) (*graph.Graph, error) {
	if g, ok := rp.gs[graphKey(dataset, scale)]; ok {
		return g, nil
	}
	ds, err := gen.ByPrefix(dataset)
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	rp.t.Time(parent, rp.req, "gen.generate", func() { g = ds.Generate(scale, 1) })
	rp.t.Time(parent, rp.req, "graph.ensure_artifacts", func() { g.EnsureDegreeArtifacts() })
	rp.gs[graphKey(dataset, scale)] = g
	return g, nil
}

// predict makes one traced Service.Predict call and replays its stages:
// the fit pipeline on a miss, extrapolation (and the blend, with a full
// observation window) on every call.
func (rp *replay) predict(k predictKey) error {
	rp.req++
	req := toRequest(k)
	var resp *service.PredictResponse
	var err error
	root := rp.t.Time(0, rp.req, "service.predict", func() {
		resp, err = rp.svc.Predict(context.Background(), req)
	})
	if err != nil {
		return fmt.Errorf("replay predict %s: %w", k, err)
	}
	g, err := rp.graphFor(root, k.Dataset, k.Scale)
	if err != nil {
		return err
	}
	f := rp.fitted[resp.ModelKey]
	if resp.CacheHit {
		rp.t.Rename(root, "service.predict_warm")
		rp.hits = append(rp.hits, hit{req: req, f: f, g: g, workers: k.Workers})
	} else {
		rp.t.Rename(root, "service.predict_cold")
		if f, err = rp.fitStages(root, k, g); err != nil {
			return err
		}
		rp.fitted[resp.ModelKey], rp.graph[resp.ModelKey], rp.keyOf[resp.ModelKey] = f, g, k
		if err := rp.appendStage(root, f.Record(resp.ModelKey, resp.ModelKey)); err != nil {
			return err
		}
	}
	return rp.extrapolateStages(root, f, g, k.Workers, rp.window[resp.ModelKey])
}

// extrapolateStages replays extrapolation under parent: with a full window
// the blend (whose child is the plain extrapolation it starts from), and
// the critical-share computation extrapolation calls.
func (rp *replay) extrapolateStages(parent int, f *core.Fitted, g *graph.Graph, workers int, window []float64) error {
	var err error
	if len(window) >= core.DefaultObservationThreshold {
		parent = rp.t.Time(parent, rp.req, "core.blend", func() {
			_, err = f.ExtrapolateBlended(g, workers, window, core.DefaultObservationThreshold)
		})
		if err != nil {
			return err
		}
	}
	ex := rp.t.Time(parent, rp.req, "core.extrapolate", func() {
		_, err = f.ExtrapolateBlended(g, workers, nil, core.DefaultObservationThreshold)
	})
	if err != nil {
		return err
	}
	if workers == 0 {
		workers = f.SampleWorkers
	}
	rp.t.Time(ex, rp.req, "bsp.critical_share", func() { bsp.CriticalShareOf(g, workers) })
	return nil
}

// fitStages replays a cold fit: Predictor.FitContext with the service's
// options as one span, then its stages as that span's children — the
// sample pipelines fanned out on a pool of the service's size, the cost
// model training, and the sample graph's critical share.
func (rp *replay) fitStages(parent int, k predictKey, g *graph.Graph) (*core.Fitted, error) {
	alg, err := algorithmFor(k.Algorithm, g.NumVertices())
	if err != nil {
		return nil, err
	}
	var f *core.Fitted
	fit := rp.t.Time(parent, rp.req, "core.fit", func() {
		f, err = predictorFor(k, rp.pool).FitContext(context.Background(), alg, g)
	})
	if err != nil {
		return nil, err
	}
	tasks := fitTasks(k)
	runs := make([]*algorithms.RunInfo, len(tasks))
	pipes := rp.t.Begin(fit, rp.req, "fit.pipelines")
	err = rp.pool.ForEach(context.Background(), len(tasks), func(_ context.Context, i int) error {
		var s *sampling.Result
		var err error
		rp.t.Time(pipes, rp.req, "sampling.sample", func() {
			s, err = sampling.Sample(g, sampling.BiasedRandomJump, tasks[i])
		})
		if err != nil {
			return err
		}
		rp.t.Time(pipes, rp.req, "algorithms.sample_run", func() {
			runs[i], err = alg.Transformed(s.VertexRatio).Run(s.Graph, clusterConfig())
		})
		return err
	})
	rp.t.End(pipes)
	if err != nil {
		return nil, err
	}
	training := []costmodel.TrainingRun{{Source: "sample", Iters: features.FromProfile(runs[0].Profile, features.ModeCriticalShare)}}
	for _, ri := range runs[1:] {
		training = append(training, costmodel.FromProfile("sample", ri.Profile, features.ModeCriticalShare))
	}
	rp.t.Time(fit, rp.req, "costmodel.train", func() { _, err = costmodel.Train(training, costmodel.Options{}) })
	if err != nil {
		return nil, err
	}
	rp.t.Time(fit, rp.req, "bsp.critical_share_sample", func() { bsp.CriticalShareOf(f.Sample.Graph, f.SampleWorkers) })
	rp.supersteps[rp.req] = 0
	for _, ri := range runs {
		rp.supersteps[rp.req] += ri.Iterations
	}
	return f, nil
}

// fitTasks are the sampling options of a fit's pipelines, derived as
// core.Predictor derives them: the main ratio with the request's seed,
// then each other training ratio with its index-derived seed.
func fitTasks(k predictKey) []sampling.Options {
	seed := k.SampleSeed
	if seed == 0 {
		seed = 1
	}
	const ratio = 0.1
	out := []sampling.Options{{Ratio: ratio, Seed: seed}}
	for i, tr := range service.DefaultTrainingRatios {
		if tr != ratio {
			out = append(out, sampling.Options{Ratio: tr, Seed: sampling.DeriveSeed(seed, uint64(i))})
		}
	}
	return out
}

// appendStage replays a durable history append to a scratch log.
func (rp *replay) appendStage(parent int, rec history.Record) error {
	var err error
	rp.t.Time(parent, rp.req, "history.append_fsync", func() { err = history.AppendFileSync(rp.scrap, rec) })
	return err
}

// observe makes one traced Service.Observe call and replays its append.
func (rp *replay) observe(modelKey string, seconds float64) error {
	rp.req++
	var err error
	root := rp.t.Time(0, rp.req, "service.observe", func() {
		_, err = rp.svc.Observe(context.Background(), service.ObserveRequest{ModelKey: modelKey, ActualSeconds: seconds})
	})
	if err != nil {
		return fmt.Errorf("replay observe: %w", err)
	}
	w := append(rp.window[modelKey], seconds)
	if len(w) > history.MaxObservationsPerKey {
		w = w[len(w)-history.MaxObservationsPerKey:]
	}
	rp.window[modelKey] = w
	return rp.appendStage(root, history.NewObservation(modelKey, seconds, 0))
}

// httpPredict times the HTTP round trip of a query the service answers
// from its cache, for the HTTP share of a warm prediction.
func (rp *replay) httpPredict(k predictKey) error {
	var buf bytes.Buffer
	var st int
	var err error
	rp.t.Time(0, rp.req, "service.http", func() {
		st, _, err = rp.http.do(rp.r.ctx, "/predict", k.body(), &buf)
	})
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("status %d: %s", st, buf.String())
	}
	return err
}

func (rp *replay) warm(res *workloadResult, deadline time.Time) error {
	for _, s := range warmScales {
		for _, a := range warmAlgorithms {
			if err := rp.predict(predictKey{Dataset: "Wiki", Scale: s, Algorithm: a}); err != nil {
				return err
			}
		}
	}
	for i, k := range res.keys {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		if err := rp.predict(k); err != nil {
			return err
		}
		if err := rp.httpPredict(k); err != nil {
			return err
		}
	}
	return nil
}

func (rp *replay) cold(res *workloadResult, deadline time.Time) error {
	probes := probeKeys()
	for _, k := range probes {
		if err := rp.predict(k); err != nil {
			return err
		}
	}
	// The probe's warm queries first (a fixed number: each is cheap), then
	// cold queries until the deadline.
	pr := newRNG(rp.r.cfg.seed, streamProbe)
	for i := 0; i < 300; i++ {
		k := probes[pr.IntN(len(probes))]
		k.Workers = whatIfWorkers[pr.IntN(len(whatIfWorkers))]
		if err := rp.predict(k); err != nil {
			return err
		}
		if err := rp.httpPredict(k); err != nil {
			return err
		}
	}
	for i, k := range res.keys {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		if err := rp.predict(k); err != nil {
			return err
		}
	}
	return nil
}

func (rp *replay) feedback(res *workloadResult, deadline time.Time) error {
	keys := feedbackKeys()
	for _, k := range keys {
		if err := rp.predict(k); err != nil {
			return err
		}
	}
	for i := range keys {
		for _, v := range res.prefill[i] {
			if err := rp.observe(res.modelKeys[i], v); err != nil {
				return err
			}
		}
	}
	for i, op := range res.feedback {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		var err error
		if op.observe {
			err = rp.observe(res.modelKeys[op.key], op.actual)
		} else if err = rp.predict(keys[op.key]); err == nil {
			err = rp.httpPredict(keys[op.key])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// probes measure, on the workload's own fitted models, the layers its
// inputs do not reach: a durable observation and its append on workloads
// without feedback, the blend over a full window, and a compaction at
// the growth trigger.
func (rp *replay) probes() error {
	// The first model (in key order) that predicts a positive runtime: an
	// observation must be positive.
	var key string
	var base *core.Prediction
	for _, k := range sortedKeys(rp.fitted) {
		p, err := rp.fitted[k].Extrapolate(rp.graph[k], 0)
		if err != nil {
			return err
		}
		if p.SuperstepSeconds > 0 {
			key, base = k, p
			break
		}
	}
	if base == nil {
		return errors.New("replay fitted no model with a positive prediction")
	}
	f, g := rp.fitted[key], rp.graph[key]
	if len(rp.window[key]) < history.MaxObservationsPerKey {
		nr := newRNG(rp.r.cfg.seed, streamNoise)
		for len(rp.window[key]) < history.MaxObservationsPerKey {
			if err := rp.observe(key, noisy(nr, base.SuperstepSeconds)); err != nil {
				return err
			}
		}
		for i := 0; i < 50; i++ {
			rp.req++
			if err := rp.extrapolateStages(0, f, g, 0, rp.window[key]); err != nil {
				return err
			}
		}
	}

	// Compaction at the trigger: the service's log, written out growth
	// factor (4, predictd's default) times over, compacts back to one copy.
	recs, _, err := history.LoadFile(rp.svc.HistoryPath())
	if err != nil {
		return err
	}
	path := filepath.Join(rp.dir, "compact.jsonl")
	for i := 0; i < 4; i++ {
		if err := history.AppendFile(path, recs...); err != nil {
			return err
		}
	}
	rp.t.Time(0, 0, "history.compact", func() { _, err = history.CompactFile(path) })
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// untraced re-runs replayed calls without the tracer, between
// memory-statistics reads, for allocations and bytes per call. The replay
// is single-goroutine and the in-process server is idle, so the
// process-wide counters are the calls' own.
type untracedFigures struct {
	predictAllocs, predictB float64
	extrapAllocs, extrapB   float64
	critB                   float64
	sampleAllocs            float64 // per fit, over its training ratios
}

func (rp *replay) untraced() (untracedFigures, error) {
	var u untracedFigures
	hits := rp.hits
	if len(hits) == 0 {
		return u, errors.New("replay made no cache-hit prediction")
	}
	per := func(before, after *runtime.MemStats, n int) (allocs, bytes float64) {
		return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, h := range hits {
		if _, err := rp.svc.Predict(context.Background(), h.req); err != nil {
			return u, err
		}
	}
	runtime.ReadMemStats(&b)
	u.predictAllocs, u.predictB = per(&a, &b, len(hits))

	runtime.ReadMemStats(&a)
	for _, h := range hits {
		if _, err := h.f.ExtrapolateBlended(h.g, h.workers, nil, core.DefaultObservationThreshold); err != nil {
			return u, err
		}
	}
	runtime.ReadMemStats(&b)
	u.extrapAllocs, u.extrapB = per(&a, &b, len(hits))

	runtime.ReadMemStats(&a)
	for _, h := range hits {
		w := h.workers
		if w == 0 {
			w = h.f.SampleWorkers
		}
		bsp.CriticalShareOf(h.g, w)
	}
	runtime.ReadMemStats(&b)
	_, u.critB = per(&a, &b, len(hits))

	// Sampling allocations of the first fits' pipelines, run one by one.
	keys := sortedKeys(rp.fitted)
	if len(keys) > 3 {
		keys = keys[:3]
	}
	runtime.ReadMemStats(&a)
	for _, key := range keys {
		g := rp.graph[key]
		for _, opts := range fitTasks(rp.keyOf[key]) {
			if _, err := sampling.Sample(g, sampling.BiasedRandomJump, opts); err != nil {
				return u, err
			}
		}
	}
	runtime.ReadMemStats(&b)
	u.sampleAllocs, _ = per(&a, &b, len(keys))
	return u, nil
}

// overheadHits caps the calls of one pass of the tracing-overhead loop.
const overheadHits = 2000

// overheadPct is the tracing overhead of a warm Service.Predict: the same
// back-to-back loop over the replayed hits is timed with and without a
// root span around each call, alternating which pass goes first, and the
// medians of the per-call times are compared. The spans go to a scratch
// tracer, so they are not reported.
func (rp *replay) overheadPct() (float64, error) {
	hits := rp.hits[:min(len(rp.hits), overheadHits)]
	t := NewTracer()
	var plain, traced []float64
	for round := 0; round < 4; round++ {
		for _, withSpan := range []bool{round%2 == 0, round%2 == 1} {
			for _, h := range hits {
				var err error
				start := time.Now()
				if withSpan {
					t.Time(0, 0, "service.predict", func() { _, err = rp.svc.Predict(context.Background(), h.req) })
				} else {
					_, err = rp.svc.Predict(context.Background(), h.req)
				}
				us := float64(time.Since(start)) / float64(time.Microsecond)
				if err != nil {
					return 0, err
				}
				if withSpan {
					traced = append(traced, us)
				} else {
					plain = append(plain, us)
				}
			}
		}
	}
	return (median(traced)/median(plain) - 1) * 100, nil
}

// report turns the spans into the per-layer metrics and prints the
// reconciliation of each root span with its children.
func (rp *replay) report(res *workloadResult) error {
	r := rp.r
	u, err := rp.untraced()
	if err != nil {
		return err
	}
	overhead, err := rp.overheadPct()
	if err != nil {
		return err
	}
	spans := rp.t.Spans()
	sum := Summarize(spans)
	med := func(name string, unit time.Duration) float64 {
		s := sum[name]
		if s == nil {
			return 0
		}
		return median(s.dur) * float64(time.Second) / float64(unit)
	}
	self := func(name string, unit time.Duration) float64 {
		s := sum[name]
		if s == nil {
			return 0
		}
		return median(s.self) * float64(time.Second) / float64(unit)
	}
	count := func(name string) string {
		if s := sum[name]; s != nil {
			return fmt.Sprintf("n=%d spans", s.n)
		}
		return "n=0 spans"
	}
	us, ms := time.Microsecond, time.Millisecond

	// Per-fit sums of the pipeline stages, grouped by request.
	sampleMs, runMs := map[int]float64{}, map[int]float64{}
	for _, s := range spans {
		switch s.Name {
		case "sampling.sample":
			sampleMs[s.Req] += s.Dur().Seconds() * 1e3
		case "algorithms.sample_run":
			runMs[s.Req] += s.Dur().Seconds() * 1e3
		}
	}
	var fitsSample, fitsRun, steps []float64
	var runTotal float64
	var stepTotal int
	for req, v := range sampleMs {
		fitsSample = append(fitsSample, v)
		fitsRun = append(fitsRun, runMs[req])
		steps = append(steps, float64(rp.supersteps[req]))
		runTotal += runMs[req]
		stepTotal += rp.supersteps[req]
	}

	warmUs := med("service.predict_warm", us)
	st := res.stats
	reqs := float64(max(st.requests, 1))
	r.add("service.predict_warm_us", "us", warmUs, count("service.predict_warm"))
	r.add("service.predict_warm_allocs", "count", u.predictAllocs, "per call, untraced")
	r.add("service.predict_warm_bytes", "B", u.predictB, "per call, untraced")
	r.add("service.http_us", "us", med("service.http", us)-warmUs, "HTTP round trip minus in-process Service.Predict, medians")
	r.add("service.warm_overhead_us", "us", self("service.predict_warm", us), "warm root minus its stages: unexplained remainder")
	r.add("service.cold_overhead_ms", "ms", self("service.predict_cold", ms), "cold root minus its stages: unexplained remainder")
	r.add("service.observe_us", "us", med("service.observe", us), count("service.observe"))
	r.add("service.hit_ratio", "ratio", float64(st.hits)/float64(max(st.hits+st.misses, 1)), "HTTP run /stats delta")
	r.add("service.coalesced_share", "ratio", float64(st.coalesced)/reqs, "HTTP run /stats delta")
	r.add("service.shed_share", "ratio", float64(st.shed)/reqs, "HTTP run /stats delta")
	r.add("service.fit_queue_depth", "count", mean(res.depth), fmt.Sprintf("mean of %d /stats samples", len(res.depth)))
	r.add("core.fit_ms", "ms", med("core.fit", ms), count("core.fit"))
	r.add("core.extrapolate_us", "us", med("core.extrapolate", us), count("core.extrapolate"))
	r.add("core.extrapolate_allocs", "count", u.extrapAllocs, "per call, untraced")
	r.add("core.extrapolate_bytes", "B", u.extrapB, "per call, untraced")
	r.add("core.blend_us", "us", med("core.blend", us), count("core.blend"))
	r.add("bsp.critical_share_us", "us", med("bsp.critical_share", us), count("bsp.critical_share"))
	r.add("bsp.critical_share_bytes", "B", u.critB, "per call, untraced")
	r.add("sampling.sample_ms", "ms", median(fitsSample), fmt.Sprintf("per fit, summed over training ratios, n=%d fits", len(fitsSample)))
	r.add("sampling.sample_allocs", "count", u.sampleAllocs, "per fit, untraced")
	r.add("algorithms.sample_run_ms", "ms", median(fitsRun), fmt.Sprintf("per fit, summed over training ratios, n=%d fits", len(fitsRun)))
	r.add("algorithms.supersteps", "count", median(steps), "per fit")
	r.add("algorithms.superstep_us", "us", runTotal*1e3/float64(max(stepTotal, 1)), "sample-run time per superstep")
	r.add("costmodel.train_ms", "ms", med("costmodel.train", ms), count("costmodel.train"))
	r.add("costmodel.refit_us", "us", self("core.blend", us), "core.blend minus its plain extrapolation: the refit")
	r.add("history.append_fsync_us", "us", med("history.append_fsync", us), count("history.append_fsync"))
	r.add("history.compact_ms", "ms", med("history.compact", ms), "log at 4x its compacted size")
	r.add("history.checkpoints", "count", float64(st.checkpoints), "HTTP run /stats delta")
	r.add("history.compactions", "count", float64(st.compactions), "HTTP run /stats delta")
	r.add("gen.generate_ms", "ms", med("gen.generate", ms), count("gen.generate"))
	r.add("graph.ensure_artifacts_ms", "ms", med("graph.ensure_artifacts", ms), count("graph.ensure_artifacts"))
	r.add("trace.overhead_pct", "%", overhead, fmt.Sprintf("warm Service.Predict with vs without a root span, medians of %d calls each", 4*min(len(rp.hits), overheadHits)))

	for _, root := range []string{"service.predict_warm", "service.predict_cold", "service.observe"} {
		s := sum[root]
		if s == nil {
			continue
		}
		// Means add up where medians need not.
		r.ledger = append(r.ledger, fmt.Sprintf("%-22s n=%-5d root %10.1fus = stages %10.1fus + unexplained %10.1fus (means)",
			root, s.n, mean(s.dur)*1e6, (mean(s.dur)-mean(s.self))*1e6, mean(s.self)*1e6))
	}
	for _, name := range sortedKeys(sum) {
		s := sum[name]
		r.ledger = append(r.ledger, fmt.Sprintf("  span %-26s n=%-5d median %10.1fus self %10.1fus", name, s.n, median(s.dur)*1e6, median(s.self)*1e6))
	}
	return nil
}
