package topology

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// DistMatrix is the dense all-pairs shortest-path matrix c(i,j) of a graph:
// the communication cost of moving one simple data unit between servers i
// and j. It is symmetric with a zero diagonal. Entries are int32 (paper
// costs are small positive integers; path sums stay well inside int32 for
// any graph this package generates).
type DistMatrix struct {
	n int
	d []int32 // row-major n*n
}

// Infinity marks an unreachable pair. Generators in this package always
// return connected graphs, so user code normally never sees it.
const Infinity int32 = math.MaxInt32

// N reports the node count.
func (m *DistMatrix) N() int { return m.n }

// At returns c(i,j).
func (m *DistMatrix) At(i, j int) int32 { return m.d[i*m.n+j] }

// Row returns the i-th row as a shared slice; callers must not mutate it.
func (m *DistMatrix) Row(i int) []int32 { return m.d[i*m.n : (i+1)*m.n] }

// MaxFinite returns the largest finite entry (the weighted diameter).
func (m *DistMatrix) MaxFinite() int32 {
	var max int32
	for _, v := range m.d {
		if v != Infinity && v > max {
			max = v
		}
	}
	return max
}

// Validate checks the metric invariants: zero diagonal, symmetry, and the
// triangle inequality (the latter only up to sampleLimit rows to keep the
// check affordable on big instances; pass n for an exhaustive check).
func (m *DistMatrix) Validate(sampleLimit int) error {
	for i := 0; i < m.n; i++ {
		if m.At(i, i) != 0 {
			return fmt.Errorf("topology: nonzero diagonal at %d: %d", i, m.At(i, i))
		}
		for j := i + 1; j < m.n; j++ {
			if m.At(i, j) != m.At(j, i) {
				return fmt.Errorf("topology: asymmetric distance (%d,%d): %d vs %d", i, j, m.At(i, j), m.At(j, i))
			}
		}
	}
	lim := sampleLimit
	if lim > m.n {
		lim = m.n
	}
	for i := 0; i < lim; i++ {
		for j := 0; j < m.n; j++ {
			for k := 0; k < lim; k++ {
				a, b, c := m.At(i, j), m.At(i, k), m.At(k, j)
				if a == Infinity || b == Infinity || c == Infinity {
					continue
				}
				if int64(a) > int64(b)+int64(c) {
					return fmt.Errorf("topology: triangle violation d(%d,%d)=%d > d(%d,%d)+d(%d,%d)=%d",
						i, j, a, i, k, k, j, int64(b)+int64(c))
				}
			}
		}
	}
	return nil
}

// MaxDenseNodes is the largest node count for which a dense n*n int32
// matrix can be indexed without overflowing int32 arithmetic on row
// offsets (floor(sqrt(2^31-1)) = 46340). Beyond this, use the lazy or
// landmark oracles in internal/distoracle instead of a dense matrix.
const MaxDenseNodes = 46340

// AllPairs computes the all-pairs shortest-path matrix with one Dijkstra per
// source, fanned out over a worker pool. workers <= 0 selects GOMAXPROCS.
// Panics for n > MaxDenseNodes, where the n*n element count would silently
// wrap int32 index math; such instances must use internal/distoracle.
func AllPairs(g *Graph, workers int) *DistMatrix {
	n := g.N()
	if n > MaxDenseNodes {
		panic(fmt.Sprintf("topology: AllPairs with n=%d exceeds MaxDenseNodes=%d (n*n overflows int32); use internal/distoracle", n, MaxDenseNodes))
	}
	m := &DistMatrix{n: n, d: make([]int32, n*n)}
	StreamRows(g, workers, m.Row)
	return m
}

// StreamRows runs one Dijkstra per source over a worker pool, writing each
// source's finished distance row into the slice returned by rowOf(src).
// rowOf must return a caller-owned []int32 of length g.N(); it is invoked
// from worker goroutines and must be safe for concurrent calls with
// distinct sources. Unlike AllPairs this never allocates n*n storage
// itself, so oracle layers can stream rows into bounded caches or K-row
// landmark tables. workers <= 0 selects GOMAXPROCS.
func StreamRows(g *Graph, workers int, rowOf func(src int) []int32) {
	n := g.N()
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	c := NewCSR(g)
	var wg sync.WaitGroup
	src := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dj Dijkstra // per-worker scratch reused across sources
			for s := range src {
				dj.Run(c, s, rowOf(s))
			}
		}()
	}
	for s := 0; s < n; s++ {
		src <- s
	}
	close(src)
	wg.Wait()
}
