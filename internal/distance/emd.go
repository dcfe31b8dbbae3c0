package distance

import (
	"container/heap"
	"math"

	"repro/internal/prob"
)

// EMD computes the Earth Mover's Distance between p and q under an
// arbitrary ground-distance matrix m (m[i][j] = cost of moving one unit
// of mass from value i to value j), by solving the transportation
// problem exactly with successive shortest augmenting paths
// (min-cost max-flow on the bipartite surplus/deficit graph).
//
// This is the fully general form used when the sensitive attribute has
// a publisher-specified distance matrix that is neither ordered nor
// tree-structured.
func EMD(p, q prob.Dist, m [][]float64) float64 {
	if len(p) != len(q) {
		panic("distance: EMD over different domains")
	}
	// Surpluses move to deficits; equal mass assumed (both normalized).
	var src, dst []int
	var sup, dem []float64
	for i := range p {
		d := p[i] - q[i]
		switch {
		case d > 1e-15:
			src = append(src, i)
			sup = append(sup, d)
		case d < -1e-15:
			dst = append(dst, i)
			dem = append(dem, -d)
		}
	}
	if len(src) == 0 {
		return 0
	}
	return transport(sup, dem, func(a, b int) float64 { return m[src[a]][dst[b]] })
}

// transport solves the balanced transportation problem with supplies
// sup, demands dem, and cost function cost(i, j). Sizes here are the
// sensitive-domain cardinality (≤ a few dozen), so the successive
// shortest path algorithm with Dijkstra and Johnson potentials is
// effectively instantaneous while remaining exact.
func transport(sup, dem []float64, cost func(i, j int) float64) float64 {
	ns, nd := len(sup), len(dem)
	// Node ids: 0 = source, 1..ns = supply, ns+1..ns+nd = demand, last = sink.
	nNodes := ns + nd + 2
	sink := nNodes - 1

	type edge struct {
		to, rev int
		cap     float64
		cost    float64
	}
	graph := make([][]edge, nNodes)
	addEdge := func(u, v int, cap, c float64) {
		graph[u] = append(graph[u], edge{to: v, rev: len(graph[v]), cap: cap, cost: c})
		graph[v] = append(graph[v], edge{to: u, rev: len(graph[u]) - 1, cap: 0, cost: -c})
	}
	total := 0.0
	for i, s := range sup {
		addEdge(0, 1+i, s, 0)
		total += s
	}
	for j, d := range dem {
		addEdge(1+ns+j, sink, d, 0)
	}
	for i := 0; i < ns; i++ {
		for j := 0; j < nd; j++ {
			addEdge(1+i, 1+ns+j, math.Inf(1), cost(i, j))
		}
	}

	pot := make([]float64, nNodes) // all costs non-negative, start at 0
	dist := make([]float64, nNodes)
	prevV := make([]int, nNodes)
	prevE := make([]int, nNodes)
	totalCost := 0.0
	const eps = 1e-12

	for total > eps {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[0] = 0
		pq := &pqueue{}
		heap.Push(pq, pqItem{node: 0, dist: 0})
		for pq.Len() > 0 {
			it := heap.Pop(pq).(pqItem)
			if it.dist > dist[it.node]+eps {
				continue
			}
			for ei, e := range graph[it.node] {
				if e.cap <= eps {
					continue
				}
				nd := dist[it.node] + e.cost + pot[it.node] - pot[e.to]
				if nd < dist[e.to]-eps {
					dist[e.to] = nd
					prevV[e.to] = it.node
					prevE[e.to] = ei
					heap.Push(pq, pqItem{node: e.to, dist: nd})
				}
			}
		}
		if math.IsInf(dist[sink], 1) {
			break // demands exhausted (shouldn't happen for balanced input)
		}
		for i := range pot {
			if !math.IsInf(dist[i], 1) {
				pot[i] += dist[i]
			}
		}
		// Find bottleneck along the path.
		flow := math.Inf(1)
		for v := sink; v != 0; v = prevV[v] {
			e := graph[prevV[v]][prevE[v]]
			if e.cap < flow {
				flow = e.cap
			}
		}
		for v := sink; v != 0; v = prevV[v] {
			e := &graph[prevV[v]][prevE[v]]
			e.cap -= flow
			graph[v][e.rev].cap += flow
			totalCost += float64(flow * e.cost)
		}
		total -= flow
	}
	return totalCost
}

type pqItem struct {
	node int
	dist float64
}

type pqueue []pqItem

func (q pqueue) Len() int            { return len(q) }
func (q pqueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pqueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pqueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pqueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
