package service

import (
	"os"
	"runtime"
	"time"
)

// ModelInfo describes one cached model for the /models inventory.
type ModelInfo struct {
	Key        string   `json:"key"`
	Algorithm  string   `json:"algorithm"`
	Iterations int      `json:"iterations"`
	R2         float64  `json:"r2"`
	Features   []string `json:"features"`
	Hits       int64    `json:"hits"`
	AgeSeconds float64  `json:"age_seconds"`
}

// Models lists the cached models, most recently used first.
func (s *Service) Models() []ModelInfo {
	entries := s.models.snapshot()
	out := make([]ModelInfo, 0, len(entries))
	for _, e := range entries {
		info := ModelInfo{
			Key:        e.key,
			Algorithm:  e.val.Algorithm,
			Iterations: e.val.Iterations,
			R2:         e.val.Model.R2(),
			Hits:       e.hits,
			AgeSeconds: time.Since(e.added).Seconds(),
		}
		for _, f := range e.val.Model.SelectedFeatures() {
			info.Features = append(info.Features, string(f))
		}
		out = append(out, info)
	}
	return out
}

// Stats are the service's cache, fit and pool counters — the /stats
// payload an operator watches to size FitParallelism.
type Stats struct {
	Models    int   `json:"models"`
	Graphs    int   `json:"graphs"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// HitRatio is Hits / (Hits + Misses); zero before any lookup.
	HitRatio float64 `json:"hit_ratio"`
	// Fits counts cold-path fits ever started; InFlightFits counts fits
	// executing now; FitTimeouts counts fits killed by the per-fit
	// deadline.
	Fits         int64 `json:"fits"`
	InFlightFits int64 `json:"in_flight_fits"`
	FitTimeouts  int64 `json:"fit_timeouts"`
	// PoolSize is the fit pool's parallelism budget; PoolInFlight the
	// sample pipelines executing now; PoolDepth the pipelines queued
	// waiting for a slot.
	PoolSize     int   `json:"pool_size"`
	PoolInFlight int64 `json:"pool_in_flight"`
	PoolDepth    int64 `json:"pool_depth"`
	// Requests counts Predict calls ever served (batch items count
	// individually); Coalesced counts requests that joined another
	// request's in-flight model or graph fill instead of starting their
	// own (the caches' single-flight).
	Requests  int64 `json:"requests"`
	Coalesced int64 `json:"coalesced"`
	// FitQueueCap is the admission bound on outstanding cold fits (0 =
	// unlimited); FitQueueDepth the slots held right now; Shed the
	// requests rejected by admission control (fit-queue 503s plus
	// in-flight 429s).
	FitQueueCap   int   `json:"fit_queue_cap"`
	FitQueueDepth int64 `json:"fit_queue_depth"`
	Shed          int64 `json:"shed"`
	// BreakerTrips counts circuit-breaker open transitions; BreakerOpen
	// the model keys currently open; BreakerFastFails the requests
	// answered 503 by an open breaker without consuming fit slots.
	BreakerTrips     int64 `json:"breaker_trips"`
	BreakerOpen      int   `json:"breaker_open"`
	BreakerFastFails int64 `json:"breaker_fast_fails"`
	// IORetries counts dataset I/O retry attempts (transient-failure
	// backoff); TornRecovered counts torn trailing history records
	// recovered (skipped, not fatal) during warm-start.
	IORetries     int64 `json:"io_retries"`
	TornRecovered int64 `json:"torn_records_recovered"`
	// UptimeSeconds is seconds since the service was constructed —
	// monotonically non-decreasing across successive /stats reads of one
	// process, so a reset betrays an unnoticed restart.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining reports whether the service has begun supervised drain;
	// DrainRejected counts the requests refused (503 + Connection: close)
	// since it began.
	Draining      bool  `json:"draining"`
	DrainRejected int64 `json:"drain_rejected"`
	// CheckpointsWritten counts fitted models durably appended to the
	// history log at fit time; CheckpointFailures the appends/compactions
	// that failed (persistence degraded, serving unaffected); Compactions
	// the growth-triggered log rewrites.
	CheckpointsWritten int64 `json:"checkpoints_written"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	Compactions        int64 `json:"compactions"`
	// Observations counts actual runtimes ever recorded via /observe (or
	// warm-started from the history log); ObservedKeys the model keys with
	// a non-empty observation window.
	Observations int64 `json:"observations"`
	ObservedKeys int   `json:"observed_keys"`
	// BlendExtrapolation/BlendInterpolation tally predictions answered by
	// each closed-loop regime.
	BlendExtrapolation int64 `json:"blend_extrapolation"`
	BlendInterpolation int64 `json:"blend_interpolation"`
	// Goroutines and OpenFDs are process-level leak canaries the soak
	// harness watches; OpenFDs is 0 where /proc is unavailable.
	Goroutines int `json:"goroutines"`
	OpenFDs    int `json:"open_fds"`
}

// Stats returns a snapshot of the cache, fit and pool counters.
func (s *Service) Stats() Stats {
	h, m, ev, joined := s.models.counters()
	_, _, _, graphsJoined := s.graphs.counters()
	st := Stats{
		Models:        s.models.len(),
		Graphs:        s.graphs.len(),
		Hits:          h,
		Misses:        m,
		Evictions:     ev,
		Fits:          s.fits.Load(),
		InFlightFits:  s.fitsInFlight.Load(),
		FitTimeouts:   s.fitTimeouts.Load(),
		PoolSize:      s.fitPool.Size(),
		PoolInFlight:  s.fitPool.InFlight(),
		PoolDepth:     s.fitPool.Waiting(),
		Requests:      s.requests.Load(),
		Coalesced:     joined + graphsJoined,
		FitQueueCap:   s.fitGate.capacity(),
		FitQueueDepth: s.fitGate.held(),
		Shed:          s.fitGate.shed.Load() + s.reqGate.shed.Load(),

		BreakerTrips:     s.breakers.trips.Load(),
		BreakerOpen:      s.breakers.openCount(),
		BreakerFastFails: s.breakers.fastFails.Load(),
		IORetries:        s.ioRetries.Load(),
		TornRecovered:    s.tornRecovered.Load(),

		UptimeSeconds:      time.Since(s.start).Seconds(),
		Draining:           s.draining.Load(),
		DrainRejected:      s.drainRejected.Load(),
		CheckpointsWritten: s.checkpoints.Load(),
		CheckpointFailures: s.checkpointFailures.Load(),
		Compactions:        s.compactions.Load(),
		Observations:       s.observations.Load(),
		BlendExtrapolation: s.blendExtrapolation.Load(),
		BlendInterpolation: s.blendInterpolation.Load(),
		Goroutines:         runtime.NumGoroutine(),
		OpenFDs:            openFDs(),
	}
	s.obsMu.RLock()
	st.ObservedKeys = len(s.obs)
	s.obsMu.RUnlock()
	if total := h + m; total > 0 {
		st.HitRatio = float64(h) / float64(total)
	}
	return st
}

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// openFDs counts this process's open file descriptors via /proc — the
// soak harness asserts it stays flat. Returns 0 where /proc is absent
// (non-Linux), which the harness treats as "cannot check".
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	// ReadDir's own descriptor is open while counting; exclude it.
	return len(entries) - 1
}
