package service

import (
	"context"
	"errors"
	"fmt"

	"predict/internal/core"
	"predict/internal/faultinject"
	"predict/internal/graph"
	"predict/internal/sampling"
)

// fit runs the expensive pipeline half for a request (cold path). Its
// sample pipelines execute on the service's shared fit pool, so N
// concurrent cold fits interleave within one parallelism budget instead
// of serializing behind each other (or stampeding the host). Each fit
// gets its own FitTimeout deadline, detached from request contexts: an
// abandoned request still warms the cache, but a fit that cannot finish
// is bounded.
func (s *Service) fit(req PredictRequest, g *graph.Graph) (*core.Fitted, error) {
	// The deadline derives from the lifecycle context, not Background():
	// fits are detached from request contexts, so the only way a drain
	// deadline can stop one is HardStop canceling lifeCtx — which must
	// abort the fit, free its pool slot, and leave no goroutine behind.
	ctx, cancel := context.WithTimeout(s.lifeCtx, s.cfg.FitTimeout)
	defer cancel()
	if fault := faultinject.Fire(faultinject.PointServiceFit); fault != nil {
		// An injected stall must end the moment the lifecycle context is
		// canceled, not after the scheduled delay — it stands in for a fit
		// stuck in its sample pipeline during a drain.
		fault.SleepContext(ctx)
		fault.MaybeKill()
		if fault.Err != nil {
			return nil, fault.Err
		}
	}
	alg, err := algorithmFor(req.Algorithm, req.Epsilon, g.NumVertices())
	if err != nil {
		return nil, err
	}
	p := core.New(core.Options{
		Method:         sampling.Method(req.Method),
		Sampling:       sampling.Options{Ratio: req.Ratio, Seed: req.SampleSeed},
		BSP:            s.cfg.Cluster,
		TrainingRatios: req.TrainingRatios,
		Pool:           s.fitPool,
	})
	s.fits.Add(1)
	s.fitsInFlight.Add(1)
	defer s.fitsInFlight.Add(-1)
	fitted, err := p.FitContext(ctx, alg, g)
	switch {
	case err == nil:
		return fitted, nil
	case s.lifeCtx.Err() != nil:
		// Lifecycle cancellation is shutdown, not a deadline: the client
		// should retry against a healthy replica, and fitTimeouts must not
		// count it as a stuck fit.
		return nil, &Error{Status: 503, Msg: "service: fit canceled: service shutting down"}
	case errors.Is(err, context.DeadlineExceeded):
		s.fitTimeouts.Add(1)
		return nil, fmt.Errorf("service: fit exceeded the %v per-fit deadline: %w",
			s.cfg.FitTimeout, err)
	}
	return nil, err
}

// checkpoint appends one freshly fitted model to the history log — the
// continuous-checkpointing path. The append is durable (fsync before
// close), so once it returns a SIGKILL at any instant loses at most the
// fit in flight, never a fitted model. When the log has grown past
// CheckpointGrowthFactor times its post-compaction size, a crash-safe
// compaction (temp + fsync + rename) rewrites it to the newest record per
// key. Failures are counted, not fatal: a full or read-only volume
// degrades persistence, not serving (the readiness probe surfaces it).
func (s *Service) checkpoint(key string, fitted *core.Fitted) {
	if s.appendRecord(fitted.Record(key, key)) {
		s.checkpoints.Add(1)
	}
}
