package bsp

import "predict/internal/graph"

// clampWorkers normalizes a worker count for a graph of n vertices:
// at least one worker, and never more workers than vertices.
func clampWorkers(workers, n int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > n && n > 0 {
		workers = n
	}
	return workers
}

// assignHash computes the engine's hash placement for g across workers:
// vertices/outEdges are the per-worker tallies, and when part is non-nil
// (length NumVertices) part[v] receives the worker owning vertex v. This
// is THE assignment the engine's setup phase uses — CriticalShareOf and
// Engine.Run both call it, so the predicted and executed placements
// cannot drift (pinned by the partition tests). The paper piggybacks
// exactly this computation on the read phase to locate the critical-path
// worker before the superstep phase starts (§3.4). CriticalShareOf
// passes a nil part and allocates only the per-worker tallies.
func assignHash(g *graph.Graph, workers int, part []int32) (vertices, outEdges []int64) {
	n := g.NumVertices()
	workers = clampWorkers(workers, n)
	vertices = make([]int64, workers)
	outEdges = make([]int64, workers)
	for v := 0; v < n; v++ {
		w := partitionWorker(VertexID(v), workers)
		if part != nil {
			part[v] = int32(w)
		}
		vertices[w]++
		outEdges[w] += int64(g.OutDegree(VertexID(v)))
	}
	return vertices, outEdges
}

// maxEdgeShare returns the largest worker's fraction of the summed
// outbound edges.
func maxEdgeShare(outEdges []int64) float64 {
	var total, maxE int64
	for _, e := range outEdges {
		total += e
		if e > maxE {
			maxE = e
		}
	}
	if total == 0 {
		return 0
	}
	return float64(maxE) / float64(total)
}

// CriticalShareOf returns the critical-path worker's fraction of all
// outbound edges under the engine's hash partitioning of g across workers.
// Like the paper's read-phase computation it is paid once per (graph,
// worker count): the share is memoized on g (graph.MemoizedShare), so
// repeated extrapolations against a cached graph cost a lookup, not a
// pass over every vertex.
func CriticalShareOf(g *graph.Graph, workers int) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return g.MemoizedShare(clampWorkers(workers, n), hashCriticalShare)
}

// hashCriticalShare is CriticalShareOf's uncached computation.
func hashCriticalShare(g *graph.Graph, workers int) float64 {
	_, outEdges := assignHash(g, workers, nil)
	return maxEdgeShare(outEdges)
}
