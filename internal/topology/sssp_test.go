package topology

import (
	"testing"

	"repro/internal/stats"
)

// fuzzGraph decodes a small connected graph from data: a spanning tree
// (node u hangs off an earlier node) plus extra edges, with weights from
// fuzzWeight. Bytes past the end of data read as zero, so every input
// decodes.
func fuzzGraph(data []byte) *Graph {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%32
	g := NewGraph(n)
	for u := 1; u < n; u++ {
		must(g.AddEdge(u, int(next())%u, fuzzWeight(next(), next())))
	}
	for len(data) >= 4 {
		u, v, w := int(next())%n, int(next())%n, fuzzWeight(next(), next())
		if u != v && !g.HasEdge(u, v) {
			must(g.AddEdge(u, v, w))
		}
	}
	return g
}

// fuzzWeight maps two bytes to a weight in [1, 2^20]: the first picks the
// magnitude 2^0..2^20, the second the value within it, so one graph mixes
// keys that differ in their low and high bits alike and a run crosses many
// radix-heap buckets.
func fuzzWeight(mag, frac byte) int32 {
	shift := mag % 21
	return min(int32(1)<<shift+int32(frac)<<shift>>8, 1<<20)
}

// FuzzShortestPaths is the differential check of the shortest-path kernel:
// every row of one reused Dijkstra must equal Floyd–Warshall on the same
// graph. The seed corpus runs on every plain `go test`; explore with
// `go test -fuzz=FuzzShortestPaths ./internal/topology`.
func FuzzShortestPaths(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{7, 0, 20, 255, 1, 0, 0, 2, 10, 3, 0, 19, 128, 0, 6, 20, 1})
	// Random inputs long enough for dense graphs: once the spanning tree
	// has used its bytes the rest become chords, which re-queue nodes at
	// lower costs and so leave stale entries for the heap to drop.
	r := stats.NewRNG(1)
	for i := 0; i < 4; i++ {
		data := make([]byte, 400)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		c := NewCSR(g)
		want := floydWarshall(g)
		dist := make([]int32, g.N())
		var dj Dijkstra
		for s := 0; s < g.N(); s++ {
			dj.Run(c, s, dist)
			for v, d := range dist {
				if int64(d) != want[s][v] {
					t.Fatalf("d(%d,%d) = %d, Floyd–Warshall says %d", s, v, d, want[s][v])
				}
			}
		}
	})
}

// A steady-state run on reused scratch allocates nothing: the buckets keep
// their capacity across sources, and the caller owns the row.
func TestDijkstraSteadyStateZeroAllocs(t *testing.T) {
	g, err := Random(300, 0.05, DefaultWeights, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCSR(g)
	dist := make([]int32, g.N())
	var dj Dijkstra
	for s := 0; s < g.N(); s++ {
		dj.Run(c, s, dist) // grow every bucket to its largest frontier
	}
	src := 0
	allocs := testing.AllocsPerRun(100, func() {
		dj.Run(c, src, dist)
		src = (src + 7) % g.N()
	})
	if allocs != 0 {
		t.Fatalf("Dijkstra.Run made %v allocations per run, want 0", allocs)
	}
}
