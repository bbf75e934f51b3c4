package graph

import (
	"sync"
	"testing"
)

// TestEnsureInEdgesConcurrent is the -race regression for the lazy
// reverse-adjacency build: parallel fit pipelines share the base graph and
// may hit EnsureInEdges (via InDegrees, sampling fidelity, feature
// extraction) from many goroutines at once. Before the sync.Once guard
// this was an unguarded write to shared state.
func TestEnsureInEdgesConcurrent(t *testing.T) {
	const n = 500
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(VertexID(i), VertexID((i+1)%n))
		b.AddEdge(VertexID(i), VertexID((i*13+7)%n))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	degs := make([][]int, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			// Mix the three entry points that trigger or depend on the
			// lazy build.
			switch i % 3 {
			case 0:
				g.EnsureInEdges()
				degs[i] = g.InDegrees()
			case 1:
				degs[i] = g.InDegrees()
			default:
				g.EnsureInEdges()
				d := make([]int, n)
				for v := 0; v < n; v++ {
					d[v] = len(g.InNeighbors(VertexID(v)))
				}
				degs[i] = d
			}
		}(i)
	}
	wg.Wait()

	if !g.HasInEdges() {
		t.Fatal("HasInEdges = false after concurrent EnsureInEdges")
	}
	want := degs[0]
	var total int
	for _, d := range want {
		total += d
	}
	if int64(total) != g.NumEdges() {
		t.Fatalf("in-degrees sum to %d, want %d", total, g.NumEdges())
	}
	for i := 1; i < goroutines; i++ {
		for v := range want {
			if degs[i][v] != want[v] {
				t.Fatalf("goroutine %d saw in-degree %d for vertex %d, goroutine 0 saw %d",
					i, degs[i][v], v, want[v])
			}
		}
	}
}

// TestMemoizedShareCachesUpToCap pins the memo's contract with a counting
// computation: a stored worker count is computed once, the memo stops
// growing at MaxMemoizedShares, and counts past the cap are recomputed
// on every call, with the computed value returned each time.
func TestMemoizedShareCachesUpToCap(t *testing.T) {
	g := new(Graph)
	var mu sync.Mutex
	calls := map[int]int{}
	compute := func(_ *Graph, workers int) float64 {
		mu.Lock()
		defer mu.Unlock()
		calls[workers]++
		return 1 / float64(workers)
	}
	const distinct = MaxMemoizedShares + 10
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 1; w <= distinct; w++ {
				if got := g.MemoizedShare(w, compute); got != 1/float64(w) {
					t.Errorf("MemoizedShare(%d) = %v, want %v", w, got, 1/float64(w))
				}
			}
		}()
	}
	wg.Wait()
	if m := g.MemoizedShares(); m != MaxMemoizedShares {
		t.Fatalf("%d worker counts memoized, want the cap %d", m, MaxMemoizedShares)
	}
	// Count calls from here on: stored counts must not compute again,
	// counts past the cap compute on every call.
	calls = map[int]int{}
	for w := 1; w <= distinct; w++ {
		g.MemoizedShare(w, compute)
	}
	if len(calls) != distinct-MaxMemoizedShares {
		t.Errorf("%d worker counts recomputed, want the %d past the cap", len(calls), distinct-MaxMemoizedShares)
	}
}
