package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/core"
	"predict/internal/gen"
	"predict/internal/graph"
	"predict/internal/parallel"
	"predict/internal/sampling"
	"predict/internal/service"
)

// The in-process references are built with predictd's options: the
// settings below mirror cmd/predictd's flag defaults and the service's
// request defaults.

// clusterConfig is predictd's sample-run and actual-run environment.
func clusterConfig() bsp.Config {
	o := cluster.DefaultOracle()
	return bsp.Config{Workers: bsp.DefaultWorkers, Oracle: &o}
}

// serviceConfig is the service.Config cmd/predictd builds from its
// default flags, with history at histPath.
func serviceConfig(histPath string) service.Config {
	o := cluster.DefaultOracle()
	return service.Config{
		MaxModels:      64,
		MaxGraphs:      8,
		DefaultTimeout: 60 * time.Second,
		MaxBatch:       256,
		Cluster:        bsp.Config{Oracle: &o},
		HistoryPath:    histPath,
	}
}

// defaultEpsilon is the service's PageRank tolerance default.
const defaultEpsilon = 0.001

// algorithmFor configures the named algorithm for n vertices as the
// service does.
func algorithmFor(name string, n int) (algorithms.Algorithm, error) {
	alg, err := algorithms.ByName(name)
	if err != nil {
		return nil, err
	}
	switch a := alg.(type) {
	case algorithms.PageRank:
		a.Tau = algorithms.TauForTolerance(defaultEpsilon, n)
		return a, nil
	case algorithms.TopKRanking:
		a.PageRank.Tau = algorithms.TauForTolerance(defaultEpsilon, n)
		return a, nil
	}
	return alg, nil
}

// predictorFor is the core.Predictor the service fits k with.
func predictorFor(k predictKey, pool *parallel.Pool) *core.Predictor {
	seed := k.SampleSeed
	if seed == 0 {
		seed = 1
	}
	return core.New(core.Options{
		Method:         sampling.BiasedRandomJump,
		Sampling:       sampling.Options{Ratio: 0.1, Seed: seed},
		BSP:            clusterConfig(),
		TrainingRatios: service.DefaultTrainingRatios,
		Pool:           pool,
	})
}

// graphs generates and caches stand-in graphs as the service does.
type graphs map[string]*graph.Graph

func graphKey(dataset string, scale float64) string { return fmt.Sprintf("%s@%g", dataset, scale) }

func (gs graphs) get(dataset string, scale float64) (*graph.Graph, error) {
	k := graphKey(dataset, scale)
	if g, ok := gs[k]; ok {
		return g, nil
	}
	ds, err := gen.ByPrefix(dataset)
	if err != nil {
		return nil, err
	}
	g := ds.Generate(scale, 1)
	g.EnsureDegreeArtifacts()
	gs[k] = g
	return g, nil
}

// actualRun is a full-graph run of an algorithm: the ground truth a
// prediction is judged against.
type actualRun struct {
	iterations int
	seconds    float64 // superstep-phase seconds
}

// actuals runs each (algorithm, dataset, scale) of keys once on the full
// graph under predictd's cluster configuration, at the default workers.
func actuals(gs graphs, keys []predictKey) (map[string]actualRun, error) {
	out := make(map[string]actualRun)
	for _, k := range keys {
		id := actualKey(k)
		if _, ok := out[id]; ok {
			continue
		}
		g, err := gs.get(k.Dataset, k.Scale)
		if err != nil {
			return nil, err
		}
		alg, err := algorithmFor(k.Algorithm, g.NumVertices())
		if err != nil {
			return nil, err
		}
		ri, err := alg.Run(g, clusterConfig())
		if err != nil {
			return nil, fmt.Errorf("actual run %s: %w", id, err)
		}
		out[id] = actualRun{iterations: ri.Iterations, seconds: ri.Profile.SuperstepPhaseSeconds()}
	}
	return out, nil
}

func actualKey(k predictKey) string { return k.Algorithm + "/" + graphKey(k.Dataset, k.Scale) }

// referencePrediction fits k in-process as predictd would and
// extrapolates it with the given observation window.
func referencePrediction(gs graphs, k predictKey, observed []float64) (*core.Prediction, error) {
	g, err := gs.get(k.Dataset, k.Scale)
	if err != nil {
		return nil, err
	}
	alg, err := algorithmFor(k.Algorithm, g.NumVertices())
	if err != nil {
		return nil, err
	}
	pool := parallel.NewPool(runtime.GOMAXPROCS(0))
	f, err := predictorFor(k, pool).FitContext(context.Background(), alg, g)
	if err != nil {
		return nil, err
	}
	return f.ExtrapolateBlended(g, k.Workers, observed, core.DefaultObservationThreshold)
}

// compareReference checks a served answer against the in-process
// reference; a mismatch fails the request that returned it, which
// postChecked already counted, so it is charged as one more failure.
func (r *run) compareReference(gs graphs, k predictKey, body []byte, observed []float64) {
	a, err := parseAnswer(body)
	if err != nil {
		r.problem("reference %s: decoding answer: %v", k, err)
		r.markFailed()
		return
	}
	if !r.compareAnswer(gs, k, a, observed) {
		r.markFailed()
	}
}

// compareAnswer reports whether a served answer's iterations and
// superstep seconds equal an in-process core fit and ExtrapolateBlended
// with predictd's options.
func (r *run) compareAnswer(gs graphs, k predictKey, a answer, observed []float64) bool {
	ref, err := referencePrediction(gs, k, observed)
	if err != nil {
		r.problem("reference %s: %v", k, err)
		return false
	}
	if a.Iterations != ref.Iterations || a.SuperstepSeconds != ref.SuperstepSeconds {
		r.problem("reference %s: served iterations=%d superstep_seconds=%v, in-process %d %v",
			k, a.Iterations, a.SuperstepSeconds, ref.Iterations, ref.SuperstepSeconds)
		return false
	}
	return true
}

// relErrPct is |predicted-actual|/actual in percent.
func relErrPct(pred, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	d := (pred - actual) / actual * 100
	if d < 0 {
		d = -d
	}
	return d
}
