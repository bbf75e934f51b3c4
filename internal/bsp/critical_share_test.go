package bsp

import (
	"sync"
	"testing"

	"predict/internal/graph"
)

// freshCriticalShare prices the hash placement from scratch, bypassing the
// per-graph memo.
func freshCriticalShare(g *graph.Graph, workers int) float64 {
	_, outEdges := assignHash(g, workers, nil)
	return maxEdgeShare(outEdges)
}

// TestCriticalShareOfMemoMatchesFreshTally pins the memoized share to a
// fresh hash-placement tally, on the first (computing) call and on the
// second (memoized) one, across clamping at both ends and the empty graph.
func TestCriticalShareOfMemoMatchesFreshTally(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"star_plus_ring": starPlusRing(300),
		"skewed":         skewedGraph(300),
		"empty":          new(graph.Graph),
	} {
		n := g.NumVertices()
		for _, workers := range []int{0, 1, 2, 7, 64, n + 5} {
			want := freshCriticalShare(g, workers)
			for call := 0; call < 2; call++ {
				if got := CriticalShareOf(g, workers); got != want {
					t.Errorf("%s workers=%d call %d: CriticalShareOf = %v, fresh tally = %v",
						name, workers, call, got, want)
				}
			}
		}
		// 0 clamps to one worker and n+5 to n: five distinct worker counts
		// were memoized. The empty graph's share is 0 without a placement,
		// so it stores nothing.
		wantMemo := 5
		if n == 0 {
			wantMemo = 0
		}
		if m := g.MemoizedShares(); m != wantMemo {
			t.Errorf("%s: %d worker counts memoized, want %d", name, m, wantMemo)
		}
	}
}

// TestCriticalShareOfConcurrent has many goroutines race on the same
// graph's first queries; run under -race it also checks the memo's
// publication discipline.
func TestCriticalShareOfConcurrent(t *testing.T) {
	g := skewedGraph(2000)
	workerCounts := []int{1, 2, 4, 7, 16, 64}
	want := make([]float64, len(workerCounts))
	for i, w := range workerCounts {
		want[i] = freshCriticalShare(g, w)
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := range workerCounts {
				j := (i + r) % len(workerCounts)
				if got := CriticalShareOf(g, workerCounts[j]); got != want[j] {
					t.Errorf("workers=%d: concurrent CriticalShareOf = %v, fresh tally = %v",
						workerCounts[j], got, want[j])
				}
			}
		}(r)
	}
	wg.Wait()
	if m := g.MemoizedShares(); m != len(workerCounts) {
		t.Errorf("%d worker counts memoized, want %d", m, len(workerCounts))
	}
}

// TestCriticalShareOfPastMemoCap queries more distinct worker counts than
// the memo holds: every answer stays exact and the memo stays bounded.
func TestCriticalShareOfPastMemoCap(t *testing.T) {
	g := skewedGraph(500)
	const distinct = graph.MaxMemoizedShares + 40
	for pass := 0; pass < 2; pass++ {
		for w := 1; w <= distinct; w++ {
			if got, want := CriticalShareOf(g, w), freshCriticalShare(g, w); got != want {
				t.Fatalf("pass %d workers=%d: CriticalShareOf = %v, fresh tally = %v", pass, w, got, want)
			}
		}
	}
	if m := g.MemoizedShares(); m != graph.MaxMemoizedShares {
		t.Errorf("%d worker counts memoized, want the cap %d", m, graph.MaxMemoizedShares)
	}
}
