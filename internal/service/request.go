package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"predict/internal/algorithms"
	"predict/internal/core"
	"predict/internal/gen"
	"predict/internal/graph"
	"predict/internal/sampling"
)

// DefaultTrainingRatios are the paper's §5.2 training sampling ratios,
// used when a request does not override them.
var DefaultTrainingRatios = []float64{0.05, 0.10, 0.15, 0.20}

// maxTrainingRatios bounds a request's training_ratios: each entry is one
// sample pipeline on the cold path, so an unbounded list would let one
// request buy unbounded fit work. The paper and every caller use 4.
const maxTrainingRatios = 16

// PredictRequest is one prediction query.
type PredictRequest struct {
	// Dataset is a stand-in prefix: LJ, Wiki, TW or UK.
	Dataset string `json:"dataset"`
	// Scale is the dataset scale factor; zero selects 1.0.
	Scale float64 `json:"scale,omitempty"`
	// GraphSeed seeds dataset generation; zero selects 1.
	GraphSeed uint64 `json:"graph_seed,omitempty"`
	// Algorithm names the algorithm: PR, SC, TOPK, CC, NH (or long names).
	Algorithm string `json:"algorithm"`
	// Epsilon is the PageRank tolerance (tau = eps/N) for PR and TOPK;
	// zero selects 0.001, negative is rejected.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Ratio is the main sampling ratio; zero selects 0.10.
	Ratio float64 `json:"ratio,omitempty"`
	// Method is the sampling method: BRJ (default), RJ, MHRW, UNI.
	Method string `json:"method,omitempty"`
	// SampleSeed seeds sampling; zero selects 1.
	SampleSeed uint64 `json:"sample_seed,omitempty"`
	// TrainingRatios override the paper's {0.05, 0.10, 0.15, 0.20}; at
	// most 16.
	TrainingRatios []float64 `json:"training_ratios,omitempty"`
	// Workers is the what-if worker count of the target run; zero keeps
	// the sample cluster's size (the paper's matched-environment
	// assumption iii). Non-zero values answer capacity-planning queries
	// from the same cached model: only the critical-path share moves.
	Workers int `json:"workers,omitempty"`
	// TimeoutMillis bounds this request; zero selects the service default.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// DeadlineSeconds, when positive, asks for the probability that the
	// actual runtime meets this SLA deadline (probability_of_deadline in
	// the response), evaluated against the prediction's p50/p95
	// distribution. It does not change the prediction itself and is not
	// part of the model key.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
}

func (r PredictRequest) withDefaults() PredictRequest {
	if r.Scale == 0 {
		r.Scale = 1.0
	}
	if r.GraphSeed == 0 {
		r.GraphSeed = 1
	}
	if r.Epsilon == 0 {
		r.Epsilon = 0.001
	}
	if r.Ratio == 0 {
		r.Ratio = 0.10
	}
	if r.Method == "" {
		r.Method = string(sampling.BiasedRandomJump)
	}
	if r.SampleSeed == 0 {
		r.SampleSeed = 1
	}
	if len(r.TrainingRatios) == 0 {
		r.TrainingRatios = DefaultTrainingRatios
	}
	return r
}

// Validate reports malformed request fields without touching any cache.
func (r PredictRequest) Validate() error {
	if r.Dataset == "" {
		return fmt.Errorf("service: missing dataset")
	}
	// Dataset existence is resolved per service (registry datasets, then
	// generator prefixes) in graphFor, not here: Validate has no registry.
	if r.Algorithm == "" {
		return fmt.Errorf("service: missing algorithm")
	}
	if _, err := algorithms.ByName(r.Algorithm); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if r.Scale < 0 {
		return fmt.Errorf("service: negative scale %v", r.Scale)
	}
	if r.Epsilon < 0 || math.IsNaN(r.Epsilon) || math.IsInf(r.Epsilon, 0) {
		return fmt.Errorf("service: epsilon %v must be a positive finite number", r.Epsilon)
	}
	if r.Ratio < 0 || r.Ratio > 1 {
		return fmt.Errorf("service: sampling ratio %v out of (0, 1]", r.Ratio)
	}
	if r.Workers < 0 {
		return fmt.Errorf("service: negative workers %d", r.Workers)
	}
	switch sampling.Method(r.Method) {
	case "", sampling.BiasedRandomJump, sampling.RandomJump,
		sampling.MetropolisHastings, sampling.UniformVertex:
	default:
		return fmt.Errorf("service: unknown sampling method %q", r.Method)
	}
	if len(r.TrainingRatios) > maxTrainingRatios {
		return fmt.Errorf("service: %d training ratios exceed the limit of %d",
			len(r.TrainingRatios), maxTrainingRatios)
	}
	for _, tr := range r.TrainingRatios {
		if tr <= 0 || tr > 1 {
			return fmt.Errorf("service: training ratio %v out of (0, 1]", tr)
		}
	}
	if r.TimeoutMillis < 0 {
		return fmt.Errorf("service: negative timeout %d", r.TimeoutMillis)
	}
	if r.DeadlineSeconds < 0 || math.IsNaN(r.DeadlineSeconds) || math.IsInf(r.DeadlineSeconds, 0) {
		return fmt.Errorf("service: deadline_seconds %v must be a positive finite number", r.DeadlineSeconds)
	}
	return nil
}

// PredictResponse is the answer to one PredictRequest.
type PredictResponse struct {
	Algorithm string `json:"algorithm"`
	Dataset   string `json:"dataset"`
	// Iterations and SuperstepSeconds are the headline predictions.
	Iterations       int     `json:"iterations"`
	SuperstepSeconds float64 `json:"superstep_seconds"`
	// PerIterationSeconds breaks the runtime down by superstep.
	PerIterationSeconds []float64 `json:"per_iteration_seconds,omitempty"`
	// RemoteMessageBytes is the extrapolated network volume (Figure 6).
	RemoteMessageBytes float64 `json:"remote_message_bytes"`
	// ModelR2 and ModelFeatures describe the (possibly cached) cost model.
	ModelR2       float64  `json:"model_r2"`
	ModelFeatures []string `json:"model_features"`
	// ModelKey is the cache key; equal keys share one fitted model.
	ModelKey string `json:"model_key"`
	// CacheHit reports whether the expensive pipeline was skipped.
	CacheHit bool `json:"cache_hit"`
	// Workers is the worker count the prediction targets.
	Workers int `json:"workers"`
	// SampleRunSeconds is the simulated planning cost paid when the model
	// was fitted (zero marginal cost on cache hits).
	SampleRunSeconds float64 `json:"sample_run_seconds"`
	// P50Seconds/P95Seconds/StdDevSeconds describe the prediction's
	// uncertainty distribution: the median, the 95th-percentile runtime
	// bound, and the normal approximation's spread.
	P50Seconds    float64 `json:"p50_seconds"`
	P95Seconds    float64 `json:"p95_seconds"`
	StdDevSeconds float64 `json:"stddev_seconds"`
	// BlendRegime reports which closed-loop regime answered:
	// "extrapolation" (pure sample-fit) or "interpolation"
	// (observation-weighted refit). Observations is how many observed
	// actual runtimes informed the blend.
	BlendRegime  string `json:"blend_regime"`
	Observations int    `json:"observations"`
	// ProbabilityOfDeadline is P(runtime <= deadline_seconds), present
	// only when the request set deadline_seconds.
	ProbabilityOfDeadline *float64 `json:"probability_of_deadline,omitempty"`
	// ElapsedMillis is the service-side wall-clock latency.
	ElapsedMillis float64 `json:"elapsed_ms"`
}

// appendModelKey canonicalizes the expensive half's inputs into b.
// Everything that changes the fitted model is in the key; the what-if
// worker count is deliberately not. The algorithm name is canonicalized
// ("PR" and "PageRank" share a model) and epsilon only enters for the
// PageRank-based algorithms that consume it, so epsilon-insensitive
// requests cannot fragment the cache. The key is built by appends into a
// caller-provided buffer — the serving path computes it on every request,
// so it must not pay fmt's boxing and scratch allocations.
func (s *Service) appendModelKey(b []byte, r PredictRequest, registryKey string) []byte {
	name, eps := r.Algorithm, 0.0
	if alg, err := algorithms.ByName(r.Algorithm); err == nil {
		name = alg.Name()
		switch alg.(type) {
		case algorithms.PageRank, algorithms.TopKRanking:
			eps = r.Epsilon
		}
	}
	b = append(b, "alg="...)
	b = append(b, name...)
	b = append(b, ",eps="...)
	b = strconv.AppendFloat(b, eps, 'g', -1, 64)
	// Registry datasets enter under their graph-cache key (namespace +
	// file mtime/size): a registry file named "Wiki" must not hit a model
	// fitted on the generator stand-in of the same name, and a model
	// fitted on one version of a file must not be served — now or via
	// history warm-up after a restart — for a replaced file. The caller
	// resolves the dataset once and passes the same key here and to
	// graphFor, so a file racing in, out or over mid-request cannot split
	// the two decisions.
	data := r.Dataset
	if registryKey != "" {
		data = registryKey
	}
	b = append(b, "|data="...)
	b = append(b, data...)
	b = append(b, ",scale="...)
	b = strconv.AppendFloat(b, r.Scale, 'g', -1, 64)
	b = append(b, ",gseed="...)
	b = strconv.AppendUint(b, r.GraphSeed, 10)
	b = append(b, "|method="...)
	b = append(b, r.Method...)
	b = append(b, ",ratio="...)
	b = strconv.AppendFloat(b, r.Ratio, 'g', -1, 64)
	b = append(b, ",sseed="...)
	b = strconv.AppendUint(b, r.SampleSeed, 10)
	b = append(b, "|train="...)
	for i, tr := range r.TrainingRatios {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, tr, 'g', -1, 64)
	}
	// The oracle enters as an opaque fingerprint (hashed once in New):
	// any coefficient change invalidates the key without leaking the
	// hidden ground truth into API responses.
	b = append(b, "|cluster=w"...)
	b = strconv.AppendInt(b, int64(s.cfg.Cluster.Workers), 10)
	b = append(b, ",s"...)
	b = strconv.AppendUint(b, s.cfg.Cluster.Seed, 10)
	b = append(b, ",o"...)
	b = strconv.AppendUint(b, s.oracleFP, 16)
	return b
}

// appendGraphKey appends a generated graph's cache key,
// "prefix|scale|seed", to b — no fmt formatting, so the warm path pays no
// boxing or scratch allocation for it.
func appendGraphKey(b []byte, r PredictRequest) []byte {
	b = append(b, r.Dataset...)
	b = append(b, '|')
	b = strconv.AppendFloat(b, r.Scale, 'g', -1, 64)
	b = append(b, '|')
	return strconv.AppendUint(b, r.GraphSeed, 10)
}

// graphFor returns the requested dataset graph: the registry file at
// path when the caller resolved one (registryKey non-empty; loaded from
// disk at most once per file version), a generated stand-in otherwise
// (generated at most once per (prefix, scale, seed), cached under key,
// which the caller built with appendGraphKey).
func (s *Service) graphFor(ctx context.Context, r PredictRequest, path, registryKey, key string) (*graph.Graph, error) {
	if registryKey != "" {
		// Registry datasets are fixed files: the generator knobs do not
		// apply, and silently ignoring them would fragment the model cache
		// across keys that name the same graph.
		if r.Scale != 1 {
			return nil, &Error{Status: 400, Msg: fmt.Sprintf(
				"service: dataset %q is a registry dataset; scale does not apply (got %g)", r.Dataset, r.Scale)}
		}
		if r.GraphSeed != 1 {
			return nil, &Error{Status: 400, Msg: fmt.Sprintf(
				"service: dataset %q is a registry dataset; graph_seed does not apply (got %d)", r.Dataset, r.GraphSeed)}
		}
		g, _, err := s.loadDataset(ctx, r.Dataset, path, registryKey)
		return g, err
	}
	g, _, err := s.graphs.get(ctx, key, func() (*graph.Graph, error) {
		ds, err := gen.ByPrefix(r.Dataset)
		if err != nil {
			if s.cfg.DatasetDir != "" {
				return nil, fmt.Errorf("service: unknown dataset %q: not a file under %s and not a generator prefix (LJ, Wiki, TW, UK)",
					r.Dataset, s.cfg.DatasetDir)
			}
			return nil, fmt.Errorf("service: unknown dataset %q (want LJ, Wiki, TW or UK)", r.Dataset)
		}
		gr := ds.Generate(r.Scale, r.GraphSeed)
		// Warm the per-graph degree artifacts (BRJ seed ordering, memoized
		// degree sequences) while the graph is being cached: every cold fit
		// against this graph — all algorithms, all sampling ratios — shares
		// them, so the first request should not pay the build inside its
		// sampling pipeline.
		gr.EnsureDegreeArtifacts()
		return gr, nil
	})
	return g, err
}

// algorithmFor configures the named algorithm for a graph of n vertices.
func algorithmFor(name string, eps float64, n int) (algorithms.Algorithm, error) {
	alg, err := algorithms.ByName(name)
	if err != nil {
		return nil, err
	}
	switch a := alg.(type) {
	case algorithms.PageRank:
		a.Tau = algorithms.TauForTolerance(eps, n)
		return a, nil
	case algorithms.TopKRanking:
		a.PageRank.Tau = algorithms.TauForTolerance(eps, n)
		return a, nil
	}
	return alg, nil
}

// Predict answers one request, consulting and populating the model cache.
// The fit of a cache miss is shared across concurrent identical requests
// (single-flight) and keeps running to completion even if ctx expires, so
// the cache still warms; only the response is abandoned.
func (s *Service) Predict(ctx context.Context, req PredictRequest) (*PredictResponse, error) {
	var resp PredictResponse
	if err := s.predictInto(ctx, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// predictInto is Predict writing into a caller-owned response — the HTTP
// handler passes a pooled struct so the warm path allocates nothing for
// the response itself. Every field of out is overwritten on success.
func (s *Service) predictInto(ctx context.Context, req PredictRequest, out *PredictResponse) error {
	start := time.Now()
	s.requests.Add(1)
	req = req.withDefaults()
	if err := req.Validate(); err != nil {
		return &Error{Status: 400, Msg: err.Error()}
	}

	// Resolve the dataset against the registry exactly once per request:
	// the prediction must agree on registry-vs-generator — and on the
	// file version — even if the file appears, disappears or is replaced
	// while the request is in flight.
	var registryKey string
	path, fi, _, registry := s.resolveDataset(req.Dataset)
	if registry {
		registryKey = datasetKey(req.Dataset, fi)
	}

	// One buffer builds both keys: a generated graph's cache key follows
	// the model key, so the whole request path pays a single string
	// allocation for its keys.
	kb := make([]byte, 0, 192)
	kb = s.appendModelKey(kb, req, registryKey)
	modelKeyLen := len(kb)
	if registryKey == "" {
		kb = appendGraphKey(kb, req)
	}
	keys := string(kb)
	key, graphKey := keys[:modelKeyLen], keys[modelKeyLen:]

	// The caches' single-flight is the only sharing between requests:
	// concurrent misses on one graph or model key share one fill, which
	// runs detached from ctx, so a request whose ctx expires abandons only
	// its own response while the fill still warms the cache.
	fail := func(err error, status int) error {
		return requestError(ctx, err, status, "predicting "+req.Algorithm+" on dataset "+req.Dataset)
	}
	g, err := s.graphFor(ctx, req, path, registryKey, graphKey)
	if err != nil {
		return fail(err, 400)
	}

	fitted, hit, err := s.models.get(ctx, key, func() (*core.Fitted, error) {
		// The breaker runs before the fit gate: while it is open, requests
		// for this key must not consume fit-queue slots that working keys
		// could use.
		if proceed, wait := s.breakers.allow(key); !proceed {
			return nil, &Error{Status: 503, RetryAfterSeconds: ceilSeconds(wait), Msg: fmt.Sprintf(
				"service: circuit breaker open for this model (%d consecutive fit failures); retry later",
				s.cfg.FitBreakerThreshold)}
		}
		if !s.fitGate.tryAcquire() {
			// A gate shed says nothing about whether this key's fits still
			// fail — release any half-open probe admission unjudged.
			s.breakers.skip(key)
			return nil, &Error{Status: 503, RetryAfterSeconds: ceilSeconds(s.cfg.ShedRetryAfter), Msg: fmt.Sprintf(
				"service: fit queue full (%d cold fits outstanding); retry later", s.cfg.FitQueueDepth)}
		}
		defer s.fitGate.release()
		fitted, err := s.fit(req, g)
		if err != nil {
			s.breakers.failure(key)
			return nil, err
		}
		s.breakers.success(key)
		s.checkpoint(key, fitted)
		return fitted, nil
	})
	if err != nil {
		return fail(err, 500)
	}

	// Closed-loop blending: the key's observed actual runtimes (if any)
	// select the regime and widen or tighten the interval. A key that has
	// never been observed takes the plain extrapolation path, bit-identical
	// to Extrapolate.
	pred, err := fitted.ExtrapolateBlended(g, req.Workers, s.observationsFor(key), s.cfg.BlendThreshold)
	if err != nil {
		return fail(err, 500)
	}
	switch pred.Runtime.Regime {
	case core.RegimeInterpolation:
		s.blendInterpolation.Add(1)
	default:
		s.blendExtrapolation.Add(1)
	}
	workers := req.Workers
	if workers == 0 {
		workers = fitted.SampleWorkers
	}
	*out = PredictResponse{
		Algorithm:           pred.Algorithm,
		Dataset:             req.Dataset,
		Iterations:          pred.Iterations,
		SuperstepSeconds:    pred.SuperstepSeconds,
		PerIterationSeconds: pred.PerIterationSeconds,
		RemoteMessageBytes:  pred.PredictedRemoteMessageBytes,
		ModelR2:             pred.Model.R2(),
		ModelKey:            key,
		CacheHit:            hit,
		Workers:             workers,
		SampleRunSeconds:    pred.SampleRunSeconds,
		P50Seconds:          pred.Runtime.P50Seconds,
		P95Seconds:          pred.Runtime.P95Seconds,
		StdDevSeconds:       pred.Runtime.StdDevSeconds,
		BlendRegime:         pred.Runtime.Regime,
		Observations:        pred.Runtime.Observations,
	}
	for _, f := range pred.Model.SelectedFeatures() {
		out.ModelFeatures = append(out.ModelFeatures, string(f))
	}
	if req.DeadlineSeconds > 0 {
		d := core.Distribution{
			MeanSeconds:   out.SuperstepSeconds,
			StdDevSeconds: out.StdDevSeconds,
		}
		p := d.ProbabilityWithin(req.DeadlineSeconds)
		out.ProbabilityOfDeadline = &p
	}
	out.ElapsedMillis = float64(time.Since(start)) / float64(time.Millisecond)
	return nil
}

// ceilSeconds converts a wait into a whole-second Retry-After hint,
// rounded up so a client never comes back sooner than told, and at least
// 1 (zero would tell clients to hammer immediately).
func ceilSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// Error is a service error with an HTTP status. Shed (429/503) errors
// carry a Retry-After hint in whole seconds.
type Error struct {
	Status            int
	Msg               string
	RetryAfterSeconds int
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Msg }

// requestError maps a failed step of a request to the *Error it answers
// with: 504 once ctx has expired (whatever the step returned, the caller
// stopped waiting; what names the work that timed out), otherwise
// asError(err, status).
func requestError(ctx context.Context, err error, status int, what string) *Error {
	if ctx.Err() != nil {
		return &Error{Status: 504, Msg: "service: request timed out " + what}
	}
	return asError(err, status)
}

// asError returns the *Error err is or wraps, or err's message under
// status.
func asError(err error, status int) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	return &Error{Status: status, Msg: err.Error()}
}
