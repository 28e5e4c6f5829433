package topology

import "math/bits"

// CSR is a graph in compressed-sparse-row form: node u's edges are
// edges[off[u]:off[u+1]], one flat array with no per-node slice headers.
// It is the layout every shortest-path computation in the repository runs
// over; build it once per graph with NewCSR and share it read-only across
// goroutines.
type CSR struct {
	off   []int32 // len n+1
	edges []Edge
}

// NewCSR converts g to CSR form in O(N+E).
func NewCSR(g *Graph) *CSR {
	n := g.N()
	c := &CSR{off: make([]int32, n+1), edges: make([]Edge, 0, 2*g.Edges())}
	for u := 0; u < n; u++ {
		c.off[u] = int32(len(c.edges))
		c.edges = append(c.edges, g.adj[u]...)
	}
	c.off[n] = int32(len(c.edges))
	return c
}

// N reports the node count.
func (c *CSR) N() int { return len(c.off) - 1 }

// Dijkstra is one worker's reusable single-source shortest-path state. The
// zero value is ready to use; after the first few runs its buckets have
// grown to the graph's frontier size and further runs allocate nothing. A
// Dijkstra must not be used by two goroutines at once.
//
// The priority queue is a radix heap: Dijkstra pops keys in non-decreasing
// order, so every queued key shares its high bits with the last popped one
// and can be filed in bucket bits.Len32(key ^ last). Bucket 0 holds keys
// equal to last; refilling it redistributes the next non-empty bucket
// around that bucket's minimum, which moves every entry strictly down. Each
// entry therefore moves at most 32 times, pushes are O(1), and one code
// path serves every positive int32 weight (a Dial bucket queue would need
// one bucket per unit of the largest weight).
type Dijkstra struct {
	buckets [33][]uint64 // entries packed as key<<32 | node
}

// Run fills dist (length c.N()) with shortest-path costs from src.
// Unreachable nodes, and nodes whose shortest path costs Infinity or more,
// get Infinity.
func (dj *Dijkstra) Run(c *CSR, src int, dist []int32) {
	for i := range dist {
		dist[i] = Infinity
	}
	for i := range dj.buckets {
		dj.buckets[i] = dj.buckets[i][:0]
	}
	dist[src] = 0
	dj.buckets[0] = append(dj.buckets[0], uint64(uint32(src)))
	for settled := 0; settled < len(dist); settled++ {
		b0 := dj.buckets[0]
		if len(b0) == 0 {
			if b0 = dj.refill(dist); len(b0) == 0 {
				return // the rest of the graph is unreachable
			}
		}
		// refill files only live entries at key last, and every later
		// relaxation costs more than last, so each pop settles a node.
		x := b0[len(b0)-1]
		dj.buckets[0] = b0[:len(b0)-1]
		d, u := uint32(x>>32), int32(uint32(x))
		for _, e := range c.edges[c.off[u]:c.off[u+1]] {
			// Both terms are below 2^31, so the uint32 sum cannot wrap; a
			// sum at or above Infinity never beats dist and stays
			// unreachable.
			nd := d + uint32(e.Weight)
			if nd < uint32(dist[e.To]) {
				dist[e.To] = int32(nd)
				b := bits.Len32(nd ^ d) // d == last
				dj.buckets[b] = append(dj.buckets[b], uint64(nd)<<32|uint64(uint32(e.To)))
			}
		}
	}
}

// refill redistributes the lowest bucket holding a live entry around that
// bucket's smallest key, which becomes the new last, and returns bucket 0.
// Stale entries (a node re-queued at a lower cost) are dropped on the way.
// Live entries are compacted in place and every one lands in a lower
// bucket, so nothing appends to bucket i while its array is being read.
func (dj *Dijkstra) refill(dist []int32) []uint64 {
	for i := 1; i < len(dj.buckets); i++ {
		b := dj.buckets[i]
		dj.buckets[i] = b[:0]
		live, lo := b[:0], uint32(Infinity)
		for _, x := range b {
			if d := uint32(x >> 32); d == uint32(dist[uint32(x)]) {
				live = append(live, x)
				lo = min(lo, d)
			}
		}
		if len(live) == 0 {
			continue
		}
		for _, x := range live {
			nb := bits.Len32(uint32(x>>32) ^ lo)
			dj.buckets[nb] = append(dj.buckets[nb], x)
		}
		return dj.buckets[0]
	}
	return dj.buckets[0]
}
