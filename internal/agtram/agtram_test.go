package agtram

import (
	"context"
	"net"
	"testing"
	"testing/quick"

	"repro/internal/mechanism"
	"repro/internal/replication"
	"repro/internal/testutil"
	"repro/internal/topology"
	"repro/internal/workload"
)

func TestSolveImproves(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(1))
	res, err := Solve(context.Background(), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Savings() <= 0 {
		t.Fatalf("savings = %v, want > 0", res.Schema.Savings())
	}
	if res.Rounds != len(res.Allocations) {
		t.Fatalf("rounds %d != allocations %d", res.Rounds, len(res.Allocations))
	}
	if res.Valuations <= 0 {
		t.Fatal("no valuations counted")
	}
	if err := res.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSolveNilProblem(t *testing.T) {
	if _, err := Solve(context.Background(), nil, Config{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	if _, err := SolveNetwork(context.Background(), nil, Config{}); err == nil {
		t.Fatal("nil problem accepted (network)")
	}
}

func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	p1 := testutil.MustBuild(testutil.Small(2))
	p2 := testutil.MustBuild(testutil.Small(2))
	r1, err := Solve(context.Background(), p1, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Solve(context.Background(), p2, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAllocations(t, r1, r8)
}

func TestEnginesAgree(t *testing.T) {
	cfg := testutil.Small(3)
	sync := mustSolve(t, testutil.MustBuild(cfg), Config{})
	netres, err := SolveNetwork(context.Background(), testutil.MustBuild(cfg), Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAllocations(t, sync, netres)
}

func TestDistributedRejectsExactValuation(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(4))
	if _, err := SolveTCP(context.Background(), p, Config{Valuation: ExactDelta}, "127.0.0.1:0"); err == nil {
		t.Fatal("exact valuation should be rejected by the tcp engine")
	}
	if _, err := SolveNetwork(context.Background(), p, Config{Valuation: ExactDelta}); err == nil {
		t.Fatal("exact valuation should be rejected by the network engine")
	}
}

func TestMaxRounds(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(5))
	res, err := Solve(context.Background(), p, Config{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 3 {
		t.Fatalf("rounds = %d, want <= 3", res.Rounds)
	}
	// The wire engines honor the cap too (TestSolveTCPMaxRounds covers tcp).
	n, err := SolveNetwork(context.Background(), testutil.MustBuild(testutil.Small(5)), Config{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n.Rounds > 3 {
		t.Fatalf("network rounds = %d", n.Rounds)
	}
}

func TestPaymentsAreSecondPrice(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(6))
	res := mustSolve(t, p, Config{})
	for _, a := range res.Allocations {
		if a.Payment > a.Value {
			t.Fatalf("round %d: payment %d above winning value %d", a.Round, a.Payment, a.Value)
		}
	}
	var total int64
	for _, pay := range res.Payments {
		if pay < 0 {
			t.Fatal("negative cumulative payment")
		}
		total += pay
	}
	var fromAllocs int64
	for _, a := range res.Allocations {
		fromAllocs += a.Payment
	}
	if total != fromAllocs {
		t.Fatalf("payment accounting mismatch: %d vs %d", total, fromAllocs)
	}
}

func TestAllocationsRespectConstraints(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(7))
	res := mustSolve(t, p, Config{})
	seen := make(map[[2]int32]bool)
	for _, a := range res.Allocations {
		key := [2]int32{a.Object, a.Server}
		if seen[key] {
			t.Fatalf("object %d placed twice on server %d", a.Object, a.Server)
		}
		seen[key] = true
		if p.Work.Primary[a.Object] == a.Server {
			t.Fatalf("object %d re-placed on its primary", a.Object)
		}
		if a.Value <= 0 {
			t.Fatalf("non-positive winning valuation %d", a.Value)
		}
	}
	for i := 0; i < p.M; i++ {
		if res.Schema.Residual(i) < 0 {
			t.Fatalf("server %d over capacity", i)
		}
	}
}

func TestExactValuationAblation(t *testing.T) {
	pLocal := testutil.MustBuild(testutil.Small(8))
	pExact := testutil.MustBuild(testutil.Small(8))
	local := mustSolve(t, pLocal, Config{Valuation: LocalCoR})
	exact := mustSolve(t, pExact, Config{Valuation: ExactDelta})
	if err := exact.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
	// Both must improve; the exact valuation sees all read improvements so
	// it should do at least roughly as well.
	if local.Schema.Savings() <= 0 || exact.Schema.Savings() <= 0 {
		t.Fatalf("savings: local=%v exact=%v", local.Schema.Savings(), exact.Schema.Savings())
	}
	if exact.Schema.Savings() < local.Schema.Savings()-10 {
		t.Fatalf("exact valuation much worse than local: %v vs %v",
			exact.Schema.Savings(), local.Schema.Savings())
	}
}

func TestFirstPricePaymentRule(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(9))
	res := mustSolve(t, p, Config{Payment: mechanism.FirstPrice})
	for _, a := range res.Allocations {
		if a.Payment != a.Value {
			t.Fatalf("first-price payment %d != value %d", a.Payment, a.Value)
		}
	}
}

func TestValuationString(t *testing.T) {
	if LocalCoR.String() != "local-cor" || ExactDelta.String() != "exact-delta" {
		t.Fatal("valuation names wrong")
	}
}

// The worst case of Theorem 4: every agent can store everything. Rounds are
// bounded by the total number of (agent, object) candidates, and the run
// must terminate with every beneficial replica placed.
func TestTerminationWorstCase(t *testing.T) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: 10, Objects: 40, Requests: 5000, RWRatio: 0.9, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int64, 10)
	total := w.TotalPrimarySize()
	for i := range caps {
		caps[i] = total * 2 // room for every object on every server
	}
	dist := topology.AllPairs(topology.Ring(10), 1)
	p, err := replication.NewProblem(dist, w, caps)
	if err != nil {
		t.Fatal(err)
	}
	res := mustSolve(t, p, Config{})
	maxCands := 0
	for i := 0; i < p.M; i++ {
		maxCands += len(w.PerServer[i])
	}
	if res.Rounds > maxCands {
		t.Fatalf("rounds %d exceed candidate bound %d", res.Rounds, maxCands)
	}
	if err := res.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Truthfulness at the system level (Theorem 5): an agent that over- or
// under-reports its best valuation never improves its round utility,
// holding the other agents fixed.
func TestSystemTruthfulnessProperty(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(11))
	// Reconstruct the first round's bids.
	var bids []mechanism.Bid
	for i := 0; i < p.M; i++ {
		a := newAgentState(p, i)
		if obj, v, ok := a.best(); ok {
			bids = append(bids, mechanism.Bid{Agent: i, Item: obj, Value: v})
		}
	}
	if len(bids) < 3 {
		t.Skip("instance too small for the scenario")
	}
	f := func(pick uint8, factorNum uint8) bool {
		idx := int(pick) % len(bids)
		agent := bids[idx]
		others := make([]mechanism.Bid, 0, len(bids)-1)
		for j, b := range bids {
			if j != idx {
				others = append(others, b)
			}
		}
		// Misreports from 0x to 3x the true value.
		mis := agent.Value * int64(factorNum%7) / 2
		return mechanism.TruthfulIsDominant(mechanism.SecondPrice, agent.Value, mis, others)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random instances, the synchronous and pipe engines agree
// and never violate schema invariants.
func TestEnginesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := testutil.InstanceConfig{
			Servers: 8, Objects: 25, Requests: 2000, RWRatio: 0.8,
			CapacityPercent: 35, EdgeP: 0.4, Seed: seed,
		}
		p1, err := testutil.Build(cfg)
		if err != nil {
			return false
		}
		p2, err := testutil.Build(cfg)
		if err != nil {
			return false
		}
		s, err := Solve(context.Background(), p1, Config{})
		if err != nil {
			return false
		}
		d, err := SolveNetwork(context.Background(), p2, Config{})
		if err != nil {
			return false
		}
		if len(s.Allocations) != len(d.Allocations) {
			return false
		}
		for i := range s.Allocations {
			if s.Allocations[i] != d.Allocations[i] {
				return false
			}
		}
		return s.Schema.ValidateInvariants() == nil && d.Schema.ValidateInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func mustSolve(t *testing.T, p *replication.Problem, cfg Config) *Result {
	t.Helper()
	res, err := Solve(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameAllocations(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Allocations) != len(b.Allocations) {
		t.Fatalf("allocation counts differ: %d vs %d", len(a.Allocations), len(b.Allocations))
	}
	for i := range a.Allocations {
		if a.Allocations[i] != b.Allocations[i] {
			t.Fatalf("allocation %d differs: %+v vs %+v", i, a.Allocations[i], b.Allocations[i])
		}
	}
	if a.Schema.TotalCost() != b.Schema.TotalCost() {
		t.Fatalf("final costs differ: %d vs %d", a.Schema.TotalCost(), b.Schema.TotalCost())
	}
}

func TestSolveTCPAgreesWithSync(t *testing.T) {
	cfg := testutil.Small(12)
	sync := mustSolve(t, testutil.MustBuild(cfg), Config{})
	tcp, err := SolveTCP(context.Background(), testutil.MustBuild(cfg), Config{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	assertSameAllocations(t, sync, tcp)
}

func TestSolveTCPErrors(t *testing.T) {
	if _, err := SolveTCP(context.Background(), nil, Config{}, "127.0.0.1:0"); err == nil {
		t.Fatal("nil problem accepted")
	}
	p := testutil.MustBuild(testutil.Small(13))
	if _, err := SolveTCP(context.Background(), p, Config{Valuation: ExactDelta}, "127.0.0.1:0"); err == nil {
		t.Fatal("exact valuation accepted over TCP")
	}
	if _, err := SolveTCP(context.Background(), p, Config{}, "256.0.0.1:bad"); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestRunRemoteAgentBadID(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(14))
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if err := RunRemoteAgent(context.Background(), c1, p, -1); err == nil {
		t.Fatal("negative agent id accepted")
	}
	if err := RunRemoteAgent(context.Background(), c1, p, p.M); err == nil {
		t.Fatal("out-of-range agent id accepted")
	}
}

func TestSolveTCPMaxRounds(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(15))
	res, err := SolveTCP(context.Background(), p, Config{MaxRounds: 2}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 2 {
		t.Fatalf("rounds = %d, want <= 2", res.Rounds)
	}
}

func TestOnRoundObserver(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(16))
	var seen []Allocation
	res, err := Solve(context.Background(), p, Config{OnRound: func(a Allocation) { seen = append(seen, a) }})
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
