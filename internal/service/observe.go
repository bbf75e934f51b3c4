package service

import (
	"context"
	"fmt"
	"math"

	"predict/internal/core"
	"predict/internal/history"
)

// ObserveRequest reports one observed actual runtime for a previously
// predicted model key — the feedback half of the closed loop.
type ObserveRequest struct {
	// ModelKey is the model_key a /predict response reported.
	ModelKey string `json:"model_key"`
	// ActualSeconds is the observed superstep-phase runtime.
	ActualSeconds float64 `json:"actual_seconds"`
	// Workers optionally records the cluster size of the observed run.
	Workers int `json:"workers,omitempty"`
}

// ObserveResponse acknowledges one recorded observation.
type ObserveResponse struct {
	ModelKey string `json:"model_key"`
	// Observations is the key's observation count after this record.
	Observations int `json:"observations"`
	// BlendRegime is the regime the key's next prediction will use.
	BlendRegime string `json:"blend_regime"`
	// Persisted reports whether the observation reached the history log
	// (false when no history path is configured or the volume is failing;
	// the observation still informs this process's predictions).
	Persisted bool `json:"persisted"`
}

// Observe records an observed actual runtime against a cached model key:
// it joins the key's in-memory observation window (bounded by
// history.MaxObservationsPerKey, oldest evicted first) and is durably
// appended to the history log as an "observation" record so feedback
// survives restarts. An unknown key is a 404 — accepting it would write
// an orphan history record no prediction could ever use.
func (s *Service) Observe(ctx context.Context, req ObserveRequest) (*ObserveResponse, error) {
	if req.ModelKey == "" {
		return nil, &Error{Status: 400, Msg: "service: missing model_key"}
	}
	if req.ActualSeconds <= 0 || math.IsNaN(req.ActualSeconds) || math.IsInf(req.ActualSeconds, 0) {
		return nil, &Error{Status: 400, Msg: fmt.Sprintf(
			"service: actual_seconds %v must be a positive finite number", req.ActualSeconds)}
	}
	if req.Workers < 0 {
		return nil, &Error{Status: 400, Msg: fmt.Sprintf("service: negative workers %d", req.Workers)}
	}
	// peek, not get: a failed observation must not count as a cache hit or
	// refresh the key's LRU position.
	if _, ok := s.models.peek(req.ModelKey); !ok {
		return nil, &Error{Status: 404, Msg: fmt.Sprintf(
			"service: unknown model key %q: observations attach to fitted models (predict first)", req.ModelKey)}
	}
	n := s.recordObservation(req.ModelKey, req.ActualSeconds)
	persisted := s.appendRecord(history.NewObservation(req.ModelKey, req.ActualSeconds, req.Workers))
	regime := core.RegimeExtrapolation
	if n >= s.cfg.BlendThreshold {
		regime = core.RegimeInterpolation
	}
	return &ObserveResponse{
		ModelKey:     req.ModelKey,
		Observations: n,
		BlendRegime:  regime,
		Persisted:    persisted,
	}, nil
}

// recordObservation appends seconds to the key's in-memory observation
// window, evicting the oldest past history.MaxObservationsPerKey, and
// returns the window's new size.
func (s *Service) recordObservation(key string, seconds float64) int {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	o := append(s.obs[key], seconds)
	if len(o) > history.MaxObservationsPerKey {
		o = o[len(o)-history.MaxObservationsPerKey:]
	}
	s.obs[key] = o
	s.observations.Add(1)
	return len(o)
}

// observationsFor returns a copy of the key's observation window (nil
// when the key has never been observed — the common warm-path case,
// which must not allocate).
func (s *Service) observationsFor(key string) []float64 {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	o := s.obs[key]
	if len(o) == 0 {
		return nil
	}
	return append([]float64(nil), o...)
}
