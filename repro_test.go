package repro_test

import (
	"bytes"
	"strings"
	"testing"

	"repro"
)

func smallConfig(seed int64) repro.InstanceConfig {
	return repro.InstanceConfig{
		Servers:         24,
		Objects:         120,
		Requests:        7200,
		RWRatio:         0.9,
		CapacityPercent: 20,
		Seed:            seed,
	}
}

func TestNewInstanceAndSolveAll(t *testing.T) {
	for _, m := range repro.Methods() {
		inst, err := repro.NewInstance(smallConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.Solve(m, &repro.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Method != m {
			t.Fatalf("result method %q, want %q", res.Method, m)
		}
		if res.SavingsPercent <= 0 {
			t.Fatalf("%s: savings %.2f, want > 0", m, res.SavingsPercent)
		}
		if res.OTC >= res.BaseOTC {
			t.Fatalf("%s: OTC did not improve: %d vs %d", m, res.OTC, res.BaseOTC)
		}
		if res.Replicas <= 0 || res.Work <= 0 {
			t.Fatalf("%s: missing counters: replicas=%d work=%d", m, res.Replicas, res.Work)
		}
	}
}

func TestInstanceAccessors(t *testing.T) {
	inst, err := repro.NewInstance(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Servers() != 24 || inst.Objects() != 120 {
		t.Fatalf("accessors wrong: %d/%d", inst.Servers(), inst.Objects())
	}
	if inst.BaseOTC() <= 0 {
		t.Fatal("base OTC should be positive")
	}
	if inst.Config().Seed != 2 {
		t.Fatal("config not retained")
	}
	if inst.Problem() == nil {
		t.Fatal("problem accessor nil")
	}
}

func TestSolveIsRepeatable(t *testing.T) {
	inst, err := repro.NewInstance(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := inst.Solve(repro.AGTRAM, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Solving again must start from the primary-only placement.
	b, err := inst.Solve(repro.AGTRAM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.OTC != b.OTC || a.Replicas != b.Replicas {
		t.Fatalf("instance mutated between solves: %d/%d vs %d/%d",
			a.OTC, a.Replicas, b.OTC, b.Replicas)
	}
}

func TestAGTRAMEnginesAgreeViaFacade(t *testing.T) {
	inst, err := repro.NewInstance(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := inst.Solve(repro.AGTRAM, nil)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := inst.Solve(repro.AGTRAM, &repro.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	network, err := inst.Solve(repro.AGTRAM, &repro.Options{Network: true})
	if err != nil {
		t.Fatal(err)
	}
	if inc.OTC != sync.OTC || inc.OTC != network.OTC {
		t.Fatalf("engines disagree: %d / %d / %d", inc.OTC, sync.OTC, network.OTC)
	}
}

func TestTopologyKinds(t *testing.T) {
	kinds := []repro.TopologyKind{
		repro.TopologyRandom, repro.TopologyWaxman, repro.TopologyPowerLaw,
	}
	for _, k := range kinds {
		cfg := smallConfig(5)
		cfg.Topology = k
		inst, err := repro.NewInstance(cfg)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if _, err := inst.Solve(repro.Greedy, nil); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	// Transit-stub needs an exact shape: 4d(1+2s) servers. d=1, s=2 -> 20.
	cfg := smallConfig(6)
	cfg.Servers = 20
	cfg.Topology = repro.TopologyTransitStub
	if _, err := repro.NewInstance(cfg); err != nil {
		t.Fatalf("transitstub: %v", err)
	}
	cfg.Servers = 21
	if _, err := repro.NewInstance(cfg); err == nil {
		t.Fatal("impossible transit-stub shape accepted")
	}
}

func TestUnknownInputs(t *testing.T) {
	cfg := smallConfig(7)
	cfg.Topology = "möbius"
	if _, err := repro.NewInstance(cfg); err == nil {
		t.Fatal("unknown topology accepted")
	}
	inst, err := repro.NewInstance(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Solve("simulated-annealing", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestTraceDrivenInstance(t *testing.T) {
	tr, err := repro.GenerateTrace(repro.TraceConfig{
		Objects: 150, Clients: 40, Events: 9000, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := repro.NewInstanceFromTrace(tr, repro.InstanceConfig{
		Servers:         20,
		CapacityPercent: 25,
		Seed:            8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Objects() != 150 {
		t.Fatalf("objects = %d, want 150", inst.Objects())
	}
	res, err := inst.Solve(repro.AGTRAM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingsPercent <= 0 {
		t.Fatalf("trace-driven savings %.2f, want > 0", res.SavingsPercent)
	}
}

func TestGenerateFridays(t *testing.T) {
	logs, err := repro.GenerateFridays(repro.TraceConfig{
		Objects: 60, Clients: 10, Events: 500, Seed: 9,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 3 {
		t.Fatalf("got %d logs", len(logs))
	}
}

// Quality shape of the paper: AGT-RAM and Greedy lead, GRA trails.
func TestQualityOrderingShape(t *testing.T) {
	cfg := repro.InstanceConfig{
		Servers: 48, Objects: 300, Requests: 18000,
		RWRatio: 0.9, CapacityPercent: 20, Seed: 10,
	}
	get := func(m repro.Method) float64 {
		inst, err := repro.NewInstance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.Solve(m, &repro.Options{Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res.SavingsPercent
	}
	agt := get(repro.AGTRAM)
	gra := get(repro.GRA)
	if gra >= agt {
		t.Fatalf("GRA (%.2f) should trail AGT-RAM (%.2f)", gra, agt)
	}
}

func TestSolveTCPViaFacade(t *testing.T) {
	inst, err := repro.NewInstance(smallConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	sync, err := inst.Solve(repro.AGTRAM, nil)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := inst.Solve(repro.AGTRAM, &repro.Options{TCPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if sync.OTC != tcp.OTC || sync.Replicas != tcp.Replicas {
		t.Fatalf("TCP engine disagrees: %d/%d vs %d/%d",
			tcp.OTC, tcp.Replicas, sync.OTC, sync.Replicas)
	}
}

func TestResultReportAndBreakdown(t *testing.T) {
	inst, err := repro.NewInstance(smallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Solve(repro.Greedy, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "per_server") {
		t.Fatal("report missing per-server section")
	}
	read, ship, bcast, err := res.Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	if read+ship+bcast != res.OTC {
		t.Fatalf("breakdown %d+%d+%d != OTC %d", read, ship, bcast, res.OTC)
	}
	var empty repro.Result
	if err := empty.WriteReport(&buf); err == nil {
		t.Fatal("empty result produced a report")
	}
	if _, _, _, err := empty.Breakdown(); err == nil {
		t.Fatal("empty result produced a breakdown")
	}
}
