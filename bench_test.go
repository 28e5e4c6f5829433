// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (run them with `go test -bench=Figure -benchtime=1x` etc. for
// a single full regeneration, or via cmd/paperbench for readable output),
// plus per-method solve benchmarks and micro-benchmarks of the substrate
// hot paths.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/adaptive"
	"repro/internal/agtram"
	"repro/internal/bench"
	"repro/internal/exhaustive"
	"repro/internal/hierarchy"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/testutil"
	"repro/internal/topology"
	"repro/internal/workload"
)

// benchScale keeps a full experiment regeneration inside a benchmark
// iteration affordable; cmd/paperbench defaults to 10x this.
const benchScale = 0.008

func benchConfig() bench.Config {
	return bench.Config{Scale: benchScale, Seed: 42, GRAGenerations: 10}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure3(context.Background(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure4(context.Background(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(context.Background(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(context.Background(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPayment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationPayment(context.Background(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationValuation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationValuation(context.Background(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationEngine(context.Background(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve measures each of the six methods on one mid-size instance
// (the per-cell cost of Tables 1 and 2). The valuations/op metric reports
// the method's dominant operation count (Result.Work) so BENCH_*.json can
// track algorithmic wins independently of wall-clock noise. The instance is
// built once — Solve is documented to start every run from a fresh
// primary-only schema, so iterations are independent.
func BenchmarkSolve(b *testing.B) {
	inst, err := repro.NewInstance(repro.InstanceConfig{
		Servers: 64, Objects: 400, Requests: 24000,
		RWRatio: 0.85, CapacityPercent: 25, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range repro.Methods() {
		b.Run(string(m), func(b *testing.B) {
			var work int64
			for i := 0; i < b.N; i++ {
				res, err := inst.Solve(m, &repro.Options{Seed: 42, GRAGenerations: 10})
				if err != nil {
					b.Fatal(err)
				}
				work += res.Work
			}
			b.ReportMetric(float64(work)/float64(b.N), "valuations/op")
		})
	}
}

// agtramEngines are the per-engine option sets shared by the engine
// benchmarks; "incremental" is the default engine, "sync" the opt-out.
var agtramEngines = []struct {
	name string
	opts repro.Options
}{
	{"incremental", repro.Options{}},
	{"sync", repro.Options{Sync: true}},
	{"network", repro.Options{Network: true}},
}

func benchSolveAGTRAM(b *testing.B, inst *repro.Instance, opts repro.Options) {
	b.Helper()
	b.ReportAllocs()
	var work int64
	for i := 0; i < b.N; i++ {
		res, err := inst.Solve(repro.AGTRAM, &opts)
		if err != nil {
			b.Fatal(err)
		}
		work += res.Work
	}
	b.ReportMetric(float64(work)/float64(b.N), "valuations/op")
}

func benchEngines(b *testing.B, cfg repro.InstanceConfig) {
	inst, err := repro.NewInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range agtramEngines {
		b.Run(e.name, func(b *testing.B) {
			benchSolveAGTRAM(b, inst, e.opts)
		})
	}
}

// benchEnginesScaled is the large-scale engine comparison shared by the
// M=500 and M=1000 benchmarks: the in-process engines plus the incremental
// engine at fixed worker counts (w1/w2/w4/w8), the numbers behind the
// EXPERIMENTS.md speedup table and BENCH_*.json. The network engine is
// skipped: serializing thousands of agents over net.Pipe measures gob, not
// the mechanism. The instance is built once (Solve is reuse-safe), so the
// expensive all-pairs shortest paths run stays out of every iteration.
func benchEnginesScaled(b *testing.B, cfg repro.InstanceConfig) {
	inst, err := repro.NewInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range agtramEngines {
		if e.name == "network" {
			continue
		}
		b.Run(e.name, func(b *testing.B) {
			benchSolveAGTRAM(b, inst, e.opts)
		})
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("incremental-w%d", w), func(b *testing.B) {
			benchSolveAGTRAM(b, inst, repro.Options{Workers: w})
		})
	}
}

// BenchmarkAGTRAMEngines compares the four mechanism engines (Ablation C's
// cost side) on one Table 1/Table 2-scale instance.
func BenchmarkAGTRAMEngines(b *testing.B) {
	benchEngines(b, repro.InstanceConfig{
		Servers: 48, Objects: 300, Requests: 18000,
		RWRatio: 0.9, CapacityPercent: 20, Seed: 42,
	})
}

// BenchmarkAGTRAMEnginesLarge scales the engine comparison to M >= 500
// servers, the regime where the incremental engine's dirty-set re-pricing
// pulls decisively ahead of the per-round full rescan.
func BenchmarkAGTRAMEnginesLarge(b *testing.B) {
	benchEnginesScaled(b, repro.InstanceConfig{
		Servers: 500, Objects: 1500, Requests: 90000,
		RWRatio: 0.9, CapacityPercent: 20, Seed: 42,
	})
}

// BenchmarkAGTRAMEnginesXLarge doubles the server count again (M=1000), the
// scale where the flat-arena kernel's cache behavior dominates.
func BenchmarkAGTRAMEnginesXLarge(b *testing.B) {
	benchEnginesScaled(b, repro.InstanceConfig{
		Servers: 1000, Objects: 3000, Requests: 180000,
		RWRatio: 0.9, CapacityPercent: 20, Seed: 42,
	})
}

// --- substrate micro-benchmarks ---

func BenchmarkAllPairsShortestPaths(b *testing.B) {
	r := stats.NewRNG(1)
	g, err := topology.Random(300, 0.1, topology.DefaultWeights, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topology.AllPairs(g, 0)
	}
}

func benchProblem(b *testing.B) *replication.Problem {
	b.Helper()
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: 64, Objects: 400, Requests: 24000, RWRatio: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(2)
	g, err := topology.Random(64, 0.3, topology.DefaultWeights, r)
	if err != nil {
		b.Fatal(err)
	}
	caps, err := replication.GenerateCapacities(w, 30, r)
	if err != nil {
		b.Fatal(err)
	}
	p, err := replication.NewProblem(topology.AllPairs(g, 0), w, caps)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkPlaceReplica(b *testing.B) {
	p := benchProblem(b)
	r := stats.NewRNG(3)
	b.ResetTimer()
	s := p.NewSchema()
	for i := 0; i < b.N; i++ {
		k := int32(r.Intn(p.N))
		m := r.Intn(p.M)
		if s.CanPlace(k, m) != nil {
			s = p.NewSchema() // start over when the schema saturates
			continue
		}
		if _, err := s.PlaceReplica(k, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalBenefit(b *testing.B) {
	p := benchProblem(b)
	s := p.NewSchema()
	r := stats.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocalBenefit(r.Intn(p.M), int32(r.Intn(p.N)))
	}
}

func BenchmarkRecomputeCost(b *testing.B) {
	p := benchProblem(b)
	s := p.NewSchema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RecomputeCost()
	}
}

func BenchmarkTraceGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.GenerateTrace(repro.TraceConfig{
			Objects: 1000, Clients: 100, Events: 50000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension benchmarks ---

func BenchmarkHierarchy(b *testing.B) {
	for _, mode := range []hierarchy.Mode{hierarchy.Hierarchical, hierarchy.Autonomous} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := testutil.MustBuild(testutil.Small(42))
				b.StartTimer()
				if _, err := hierarchy.Solve(context.Background(), p, hierarchy.Config{Regions: 4, Mode: mode}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAdaptiveEpoch(b *testing.B) {
	ws, err := adaptive.GenerateEpochs(workload.SyntheticConfig{
		Servers: 32, Objects: 200, Requests: 12000, RWRatio: 0.9, Seed: 1,
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(2)
	g, err := topology.Random(32, 0.3, topology.DefaultWeights, r)
	if err != nil {
		b.Fatal(err)
	}
	caps, err := replication.GenerateCapacities(ws[0], 15, r)
	if err != nil {
		b.Fatal(err)
	}
	cost := topology.AllPairs(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adaptive.Run(context.Background(), cost, ws, caps, adaptive.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	l, err := repro.GenerateTrace(repro.TraceConfig{
		Objects: 400, Clients: 100, Events: 30000, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := repro.NewInstanceFromTrace(l, repro.InstanceConfig{
		Servers: 40, CapacityPercent: 20, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := inst.Solve(repro.AGTRAM, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Replay(res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveOptimum(b *testing.B) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: 4, Objects: 6, Requests: 800, RWRatio: 0.85,
		DemandFraction: 0.6, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(6)
	g, err := topology.Random(4, 0.5, topology.DefaultWeights, r)
	if err != nil {
		b.Fatal(err)
	}
	caps, err := replication.GenerateCapacities(w, 20, r)
	if err != nil {
		b.Fatal(err)
	}
	p, err := replication.NewProblem(topology.AllPairs(g, 1), w, caps)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exhaustive.Solve(context.Background(), p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveTCPLoopback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := testutil.MustBuild(testutil.Small(7))
		b.StartTimer()
		if _, err := agtram.SolveTCP(context.Background(), p, agtram.Config{}, "127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
	}
}
