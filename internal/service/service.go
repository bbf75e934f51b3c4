// Package service turns the batch PREDIcT pipeline into a long-running
// prediction service: graphs are loaded once, fitted cost models are
// cached and reused across requests, and predictions are answered
// concurrently over JSON/HTTP.
//
// The split follows the cost structure of the pipeline. The expensive half
// — drawing samples, profiling transformed sample runs at several training
// ratios, fitting the regression (core.Predictor.Fit) — depends only on
// (algorithm configuration, cluster configuration, sampling configuration,
// training ratios, input dataset). The cheap half — extrapolating the
// fitted features to full scale and pricing them (core.Fitted.Extrapolate)
// — additionally takes a what-if worker count. The service therefore keys
// an LRU-bounded cache of core.Fitted values by the expensive half's
// inputs; repeated queries, batch sweeps and what-if cluster sizing all
// hit the cache and pay only extrapolation. This mirrors how C3O-style
// systems answer many configuration queries from runtime models trained
// once.
//
// Endpoints (all JSON; docs/API.md is the full reference):
//
//	POST /predict        one PredictRequest  -> PredictResponse
//	POST /predict/batch  BatchRequest        -> BatchResponse (concurrent)
//	POST /observe        ObserveRequest      -> ObserveResponse (feedback)
//	GET  /models         cached model inventory
//	GET  /datasets       dataset registry inventory
//	GET  /stats          cache hit ratio, in-flight fits, fit-pool depth
//	GET  /healthz        liveness + cache statistics
//	GET  /readyz         readiness: 503 while degraded
//
// Observed actual runtimes posted to /observe close the loop: they are
// persisted as history "observation" records and folded into later
// predictions for the same model key (core.ExtrapolateBlended), which
// also carry p50/p95 interval estimates and deadline probabilities.
//
// Cache entries persist through internal/history ("model" records):
// SaveHistory archives every cached entry's training matrix and
// extrapolation context, and WarmFromHistory refits them at startup —
// cheap regression refits instead of expensive sample reruns.
package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/core"
	"predict/internal/graph"
	"predict/internal/parallel"
)

// Config parameterizes a Service.
type Config struct {
	// MaxModels bounds the fitted-model LRU cache; zero selects 64.
	MaxModels int
	// MaxGraphs bounds the generated-graph LRU cache; zero selects 8.
	MaxGraphs int
	// DefaultTimeout bounds each request when the request itself does not
	// set one; zero selects 60s.
	DefaultTimeout time.Duration
	// MaxBatch bounds the number of requests in one batch call; zero
	// selects 256.
	MaxBatch int
	// FitParallelism budgets the shared fit pool: across all concurrent
	// cold-path fits, at most this many sample+profile pipelines execute
	// at once. Concurrent cache misses for different keys previously
	// serialized on fit compute; the shared pool lets them interleave
	// without letting them multiply. Zero selects GOMAXPROCS.
	FitParallelism int
	// FitTimeout is the per-fit deadline. Fits run detached from request
	// contexts (an abandoned request still warms the cache), so this is
	// the only bound on a cold path that cannot finish; zero selects 5m.
	FitTimeout time.Duration
	// FitQueueDepth bounds how many cold fits may be outstanding at once
	// (executing plus queued behind the fit pool). A cache miss past the
	// bound is shed immediately with 503 + Retry-After instead of queuing
	// unbounded work, so a burst of cold traffic cannot starve warm cache
	// hits. Warm hits never consult the gate. Zero selects
	// 4*FitParallelism; negative disables shedding (unbounded).
	FitQueueDepth int
	// MaxInFlight bounds concurrently served work requests (/predict,
	// /predict/batch, /observe and /datasets/{name}/load each count one);
	// excess requests are shed with 429 + Retry-After. Zero or negative
	// means unlimited.
	MaxInFlight int
	// ShedRetryAfter is the Retry-After hint attached to shed (429/503)
	// responses, rounded up to whole seconds; zero selects 1s.
	ShedRetryAfter time.Duration
	// Cluster is the sample-run execution environment. The zero value
	// selects 8 workers priced by cluster.DefaultOracle() — the repo's
	// stand-in for the paper's testbed.
	Cluster bsp.Config
	// DatasetDir, when set, enables the dataset registry: files under the
	// directory (<name>.snap snapshots, <name>.txt/.el/.edges edge lists)
	// become named datasets a request can address alongside the generator
	// prefixes. See datasets.go.
	DatasetDir string
	// FitBreakerThreshold is the per-model-key circuit breaker's trip
	// point: after this many consecutive fit failures for one key, further
	// requests for it fast-fail with 503 + Retry-After without consuming
	// fit-pool slots, until a half-open probe succeeds. Zero selects 5;
	// negative disables the breaker.
	FitBreakerThreshold int
	// FitBreakerCooldown is how long an open breaker waits before letting
	// one probe request through (half-open); zero selects 5s.
	FitBreakerCooldown time.Duration
	// RetryAttempts bounds dataset I/O attempts (first try included) for
	// transient failures; zero selects 3, negative disables retries.
	RetryAttempts int
	// RetryBaseDelay/RetryMaxDelay shape the jittered exponential backoff
	// between dataset I/O retries; zero selects 50ms / 1s.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// HistoryPath, when set, names the history file the service persists
	// models to; the readiness probe (Readiness) checks it stays
	// appendable so operators learn about a read-only or full volume
	// before a save silently starts failing. Every newly fitted model is
	// appended here at fit time via the crash-safe durable append — a
	// SIGKILL at any instant loses at most the fit in flight, never a
	// fitted model.
	HistoryPath string
	// CheckpointGrowthFactor bounds checkpoint-log growth: when the log
	// holds at least this many times the records it held after the last
	// compaction (or warm start), a compaction pass rewrites it keeping
	// only the newest record per model key. Zero selects 4; negative
	// disables compaction (the log grows one record per fit, forever).
	CheckpointGrowthFactor int
	// BlendThreshold is the closed-loop regime switch: a model key with at
	// least this many observed actual runtimes answers from the
	// observation-weighted refit (interpolation) instead of the pure
	// sample-fit model (extrapolation). Zero selects
	// core.DefaultObservationThreshold (5, the Ellis density rule).
	BlendThreshold int
	// MmapDatasets serves .snap registry datasets from mmap'd pages
	// (graph.MmapSnapshot) instead of heap copies: loads are O(1), the
	// kernel page cache shares one physical copy across processes, and a
	// dataset larger than RAM pages in on demand. On platforms without
	// mmap the load silently falls back to the copy-in reader. Mapped
	// generations are never explicitly unmapped — the LRU eviction drops
	// the Graph and the mapping's finalizer reclaims the address space,
	// per the lifetime rules in graph/mmap.go.
	MmapDatasets bool
}

func (c Config) withDefaults() Config {
	if c.MaxModels <= 0 {
		c.MaxModels = 64
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.FitParallelism <= 0 {
		c.FitParallelism = runtime.GOMAXPROCS(0)
	}
	if c.FitTimeout <= 0 {
		c.FitTimeout = 5 * time.Minute
	}
	if c.FitQueueDepth == 0 {
		c.FitQueueDepth = 4 * c.FitParallelism
	}
	if c.ShedRetryAfter <= 0 {
		c.ShedRetryAfter = time.Second
	}
	if c.FitBreakerThreshold == 0 {
		c.FitBreakerThreshold = 5
	}
	if c.FitBreakerCooldown <= 0 {
		c.FitBreakerCooldown = 5 * time.Second
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = time.Second
	}
	if c.CheckpointGrowthFactor == 0 {
		c.CheckpointGrowthFactor = 4
	}
	if c.BlendThreshold <= 0 {
		c.BlendThreshold = core.DefaultObservationThreshold
	}
	if c.Cluster.Oracle == nil {
		o := cluster.DefaultOracle()
		c.Cluster.Oracle = &o
	}
	if c.Cluster.Workers == 0 {
		c.Cluster.Workers = bsp.DefaultWorkers
	}
	return c
}

// Service answers prediction requests from cached graphs and cost models.
// All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	models  *cache[*core.Fitted]
	graphs  *cache[*graph.Graph]
	fitPool *parallel.Pool
	fitGate *gate // bounds outstanding cold fits (admission control)
	reqGate *gate // optional bound on in-flight requests
	start   time.Time
	// oracleFP fingerprints the cost oracle once at construction — it
	// never changes afterwards, so modelKey must not re-hash it per
	// request (reflection-heavy and allocating).
	oracleFP uint64

	// fits counts cold-path model fits (for tests and /healthz);
	// fitsInFlight tracks fits currently executing; fitTimeouts counts
	// fits killed by the per-fit deadline; requests counts Predict calls.
	fits         atomic.Int64
	fitsInFlight atomic.Int64
	fitTimeouts  atomic.Int64
	requests     atomic.Int64

	// breakers holds per-model-key circuit breakers; ioRetries counts
	// dataset I/O retry attempts, tornRecovered torn history tails
	// skipped during warm-start (both for /stats).
	breakers      breakerSet
	ioRetries     atomic.Int64
	tornRecovered atomic.Int64

	// lifeCtx is the lifecycle context every detached cold fit derives
	// its deadline from: HardStop cancels it, so a drain deadline passing
	// actually stops in-flight fits instead of letting them outlive the
	// server. draining gates new work (503 + Connection: close) once
	// BeginDrain flips it; drainRejected counts the requests it refused.
	lifeCtx       context.Context
	lifeCancel    context.CancelFunc
	draining      atomic.Bool
	drainRejected atomic.Int64
	// activeWork counts admitted work requests (predict, batch, observe,
	// dataset load) currently executing — the population a supervised
	// drain waits for while the listener keeps answering 503s and probes.
	activeWork atomic.Int64

	// histMu serializes checkpoint appends, compactions and snapshot
	// saves against each other and guards the mutable history path (an
	// unreadable warm-start file diverts persistence to a sibling).
	// ckptLog counts records in the checkpoint log; ckptBase is the count
	// right after the last compaction/warm-start/save — the growth-factor
	// trigger compares the two.
	histMu   sync.Mutex
	histPath string
	ckptLog  int
	ckptBase int

	// checkpoints/checkpointFailures/compactions are the continuous-
	// checkpointing counters /stats exposes.
	checkpoints        atomic.Int64
	checkpointFailures atomic.Int64
	compactions        atomic.Int64

	// obsMu guards obs, the per-model-key windows of observed actual
	// runtimes (/observe feedback), each capped at
	// history.MaxObservationsPerKey newest-first-out. observations counts
	// runtimes ever recorded; blendExtrapolation/blendInterpolation tally
	// which regime answered each prediction (for /stats).
	obsMu              sync.RWMutex
	obs                map[string][]float64
	observations       atomic.Int64
	blendExtrapolation atomic.Int64
	blendInterpolation atomic.Int64
}

// New returns a Service with the given configuration.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *cfg.Cluster.Oracle)
	lifeCtx, lifeCancel := context.WithCancel(context.Background())
	return &Service{
		cfg:        cfg,
		models:     newCache[*core.Fitted](cfg.MaxModels),
		graphs:     newCache[*graph.Graph](cfg.MaxGraphs),
		fitPool:    parallel.NewPool(cfg.FitParallelism),
		fitGate:    newGate(cfg.FitQueueDepth),
		reqGate:    newGate(cfg.MaxInFlight),
		oracleFP:   h.Sum64(),
		start:      time.Now(),
		breakers:   newBreakerSet(cfg.FitBreakerThreshold, cfg.FitBreakerCooldown),
		lifeCtx:    lifeCtx,
		lifeCancel: lifeCancel,
		histPath:   cfg.HistoryPath,
		ckptBase:   1,
		obs:        make(map[string][]float64),
	}
}

// ActiveWork reports how many admitted prediction-work requests are
// executing right now — what a supervised drain waits to reach zero.
func (s *Service) ActiveWork() int64 { return s.activeWork.Load() }

// BeginDrain flips the service into draining: new prediction work is
// refused with 503 + Connection: close (load balancers move on), the
// readiness probe reports draining, and in-flight work keeps running.
// Idempotent; there is no way back — a draining process exits.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// HardStop cancels the lifecycle context: every in-flight detached fit
// derives its deadline from it, so fits abort promptly, release their
// pool slots, and fail their waiting requests with 503. Called when the
// drain deadline passes with work still in flight.
func (s *Service) HardStop() { s.lifeCancel() }
