package agtram

import (
	"context"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/mechanism"
	"repro/internal/testutil"
)

func TestIncrementalNilProblem(t *testing.T) {
	if _, err := SolveIncremental(context.Background(), nil, Config{}); err == nil {
		t.Fatal("nil problem accepted")
	}
}

func TestIncrementalRejectsExactValuation(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(4))
	if _, err := SolveIncremental(context.Background(), p, Config{Valuation: ExactDelta}); err == nil {
		t.Fatal("exact valuation should be rejected by the incremental engine")
	}
}

func TestIncrementalMaxRounds(t *testing.T) {
	sync := mustSolve(t, testutil.MustBuild(testutil.Small(5)), Config{MaxRounds: 3})
	inc, err := SolveIncremental(context.Background(), testutil.MustBuild(testutil.Small(5)), Config{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Rounds > 3 {
		t.Fatalf("rounds = %d, want <= 3", inc.Rounds)
	}
	assertSameAllocations(t, sync, inc)
}

func TestIncrementalOnRound(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(16))
	var seen []Allocation
	res, err := SolveIncremental(context.Background(), p, Config{OnRound: func(a Allocation) { seen = append(seen, a) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Allocations) {
		t.Fatalf("observer saw %d rounds, result has %d", len(seen), len(res.Allocations))
	}
	for i := range seen {
		if seen[i] != res.Allocations[i] {
			t.Fatalf("round %d: observer %+v != result %+v", i, seen[i], res.Allocations[i])
		}
	}
}

func TestIncrementalFirstPriceAgrees(t *testing.T) {
	cfg := Config{Payment: mechanism.FirstPrice}
	sync := mustSolve(t, testutil.MustBuild(testutil.Small(9)), cfg)
	inc, err := SolveIncremental(context.Background(), testutil.MustBuild(testutil.Small(9)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAllocations(t, sync, inc)
	for _, a := range inc.Allocations {
		if a.Payment != a.Value {
			t.Fatalf("first-price payment %d != value %d", a.Payment, a.Value)
		}
	}
}

// TestIncrementalDoesLessWork is the algorithmic claim behind the engine:
// on a non-trivial instance it must re-price far fewer candidates than the
// per-round full rescan, while producing the identical outcome.
func TestIncrementalDoesLessWork(t *testing.T) {
	cfg := testutil.Medium(21)
	sync := mustSolve(t, testutil.MustBuild(cfg), Config{})
	inc, err := SolveIncremental(context.Background(), testutil.MustBuild(cfg), Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAllocations(t, sync, inc)
	if inc.Valuations >= sync.Valuations {
		t.Fatalf("incremental valuations %d not below synchronous %d", inc.Valuations, sync.Valuations)
	}
	t.Logf("valuations: sync=%d incremental=%d (%.1fx fewer)",
		sync.Valuations, inc.Valuations, float64(sync.Valuations)/float64(inc.Valuations))
}

// TestDifferentialEngines runs the synchronous, incremental, and wire
// engines over a batch of seeded random instances and requires identical
// allocation sequences (object, server, value, AND second-price payment
// per round), identical cumulative payments, and identical final OTC —
// plus schema invariants after every run.
func TestDifferentialEngines(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := testutil.InstanceConfig{
			Servers:         10 + int(seed%5)*4,
			Objects:         40 + int(seed%3)*30,
			Requests:        3000 + int(seed)*500,
			RWRatio:         0.75 + float64(seed%4)*0.05,
			CapacityPercent: 20 + float64(seed%3)*10,
			EdgeP:           0.35,
			Seed:            seed,
		}
		sync, err := Solve(context.Background(), testutil.MustBuild(cfg), Config{})
		if err != nil {
			t.Fatalf("seed %d: sync: %v", seed, err)
		}
		inc, err := SolveIncremental(context.Background(), testutil.MustBuild(cfg), Config{})
		if err != nil {
			t.Fatalf("seed %d: incremental: %v", seed, err)
		}
		// A zeroed fault config and a generous round deadline must take no
		// eviction path: the wire engines stay bit-identical to Solve.
		wireCfg := Config{RoundTimeout: 10 * time.Second, Faults: &faultnet.Config{}}
		netw, err := SolveNetwork(context.Background(), testutil.MustBuild(cfg), wireCfg)
		if err != nil {
			t.Fatalf("seed %d: network: %v", seed, err)
		}
		results := map[string]*Result{"sync": sync, "incremental": inc, "network": netw}
		if seed%5 == 0 {
			tcp, err := SolveTCP(context.Background(), testutil.MustBuild(cfg), wireCfg, "127.0.0.1:0")
			if err != nil {
				t.Fatalf("seed %d: tcp: %v", seed, err)
			}
			results["tcp"] = tcp
		}
		for name, res := range results {
			if err := res.Schema.ValidateInvariants(); err != nil {
				t.Fatalf("seed %d: %s invariants: %v", seed, name, err)
			}
			if len(res.Evictions) != 0 {
				t.Fatalf("seed %d: %s evicted agents on a fault-free run: %+v", seed, name, res.Evictions)
			}
			if name != "sync" {
				assertIdenticalRuns(t, seed, sync, res)
			}
		}
	}
}

func assertIdenticalRuns(t *testing.T, seed int64, a, b *Result) {
	t.Helper()
	if a.Rounds != b.Rounds || len(a.Allocations) != len(b.Allocations) {
		t.Fatalf("seed %d: rounds differ: %d/%d vs %d/%d",
			seed, a.Rounds, len(a.Allocations), b.Rounds, len(b.Allocations))
	}
	for i := range a.Allocations {
		if a.Allocations[i] != b.Allocations[i] {
			t.Fatalf("seed %d: allocation %d differs: %+v vs %+v",
				seed, i, a.Allocations[i], b.Allocations[i])
		}
	}
	if len(a.Payments) != len(b.Payments) {
		t.Fatalf("seed %d: payment vector lengths differ", seed)
	}
	for i := range a.Payments {
		if a.Payments[i] != b.Payments[i] {
			t.Fatalf("seed %d: server %d cumulative payment differs: %d vs %d",
				seed, i, a.Payments[i], b.Payments[i])
		}
	}
	if a.Schema.TotalCost() != b.Schema.TotalCost() {
		t.Fatalf("seed %d: final OTC differs: %d vs %d", seed, a.Schema.TotalCost(), b.Schema.TotalCost())
	}
}
