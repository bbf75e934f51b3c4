package service

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"
)

// warmPredictCost returns the bytes and allocations one warm in-process
// Predict of req makes, after a cold call fits the model and prices req's
// worker count once. The allocation counters are process-wide, and fits
// that earlier tests abandoned may still be running in the background, so
// each figure is the least of several spaced rounds: other goroutines can
// only add to a round.
func warmPredictCost(t *testing.T, svc *Service, req PredictRequest) (bytes, allocs uint64) {
	t.Helper()
	ctx := context.Background()
	if _, err := svc.Predict(ctx, req); err != nil {
		t.Fatal(err)
	}
	const rounds, runs = 10, 20
	bytes, allocs = math.MaxUint64, math.MaxUint64
	for r := 0; r < rounds; r++ {
		time.Sleep(10 * time.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			resp, err := svc.Predict(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !resp.CacheHit {
				t.Fatalf("warm predict at scale %g missed the cache", req.Scale)
			}
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
	}
	return bytes, allocs
}

// TestWarmPredictBytesIndependentOfGraphSize holds the warm path O(1) in
// graph size: a cache hit at an already-priced worker count must allocate
// the same few kilobytes on a graph 12.5x larger. Re-deriving the
// critical share per request allocated a placement slice of one int32 per
// vertex, which made the large graph's hit roughly ten times as costly.
func TestWarmPredictBytesIndependentOfGraphSize(t *testing.T) {
	svc := New(Config{})
	small, large := testRequest(), testRequest()
	small.Scale, large.Scale = 0.08, 1.0
	small.Workers, large.Workers = 16, 16
	smallBytes, _ := warmPredictCost(t, svc, small)
	largeBytes, _ := warmPredictCost(t, svc, large)
	t.Logf("warm predict: %d B at Wiki 0.08, %d B at Wiki 1.0", smallBytes, largeBytes)
	// Per-iteration response slices differ with the fitted models, so
	// the two agree within a small constant rather than exactly.
	const slack = 1024
	diff := int64(largeBytes) - int64(smallBytes)
	if diff > slack || diff < -slack {
		t.Errorf("warm predict allocates %d B at Wiki 1.0 vs %d B at Wiki 0.08; want within %d B",
			largeBytes, smallBytes, slack)
	}
}

// TestWarmPredictAllocs bounds the allocations of a warm in-process
// Predict: a cache hit is a key build, two cache lookups and an
// O(iterations) extrapolation into one reused feature buffer, so it must
// stay within a small constant count. A per-request single-flight layer
// (goroutine, channel, map entry) or a feature-vector copy per iteration
// would each blow the budget.
func TestWarmPredictAllocs(t *testing.T) {
	req := testRequest()
	req.Scale, req.Workers = 0.08, 16
	bytes, allocs := warmPredictCost(t, New(Config{}), req)
	t.Logf("warm predict at Wiki 0.08: %d allocs, %d B", allocs, bytes)
	const maxAllocs = 20
	if allocs > maxAllocs {
		t.Errorf("warm predict makes %d allocs, want <= %d", allocs, maxAllocs)
	}
}
