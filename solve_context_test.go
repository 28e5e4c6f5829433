package repro_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro"
)

// Every registered method must honour a context that is already cancelled:
// return context.Canceled before doing a single round, and leave the
// instance reusable.
func TestSolveContextCancelledAllMethods(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range repro.Methods() {
		inst, err := repro.NewInstance(smallConfig(50))
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.SolveContext(ctx, m, &repro.Options{Seed: 50})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", m, err)
		}
		if res != nil {
			t.Fatalf("%s: got a result alongside the cancellation error", m)
		}
		// The cancelled attempt must not have mutated the problem: the
		// instance solves normally afterwards.
		after, err := inst.SolveContext(context.Background(), m, &repro.Options{Seed: 50})
		if err != nil {
			t.Fatalf("%s: solve after cancelled attempt: %v", m, err)
		}
		if after.SavingsPercent <= 0 {
			t.Fatalf("%s: savings %.2f after cancelled attempt, want > 0", m, after.SavingsPercent)
		}
	}
}

// Conflicting engine selections must fail loudly instead of silently
// preferring one flag over another.
func TestOptionConflicts(t *testing.T) {
	inst, err := repro.NewInstance(smallConfig(51))
	if err != nil {
		t.Fatal(err)
	}
	bad := []repro.Options{
		{Sync: true, Network: true},
		{Sync: true, TCPAddr: "127.0.0.1:0"},
		{Network: true, TCPAddr: "127.0.0.1:0"},
		{ExactValuation: true, Network: true},
		{ExactValuation: true, TCPAddr: "127.0.0.1:0"},
	}
	for i, opts := range bad {
		opts := opts
		if _, err := inst.Solve(repro.AGTRAM, &opts); err == nil {
			t.Fatalf("conflict %d accepted: %+v", i, opts)
		}
	}
	// ExactValuation alone (or with Sync) stays legal.
	if _, err := inst.Solve(repro.AGTRAM, &repro.Options{Sync: true, ExactValuation: true}); err != nil {
		t.Fatalf("Sync+ExactValuation rejected: %v", err)
	}
}

// Engine selections are AGT-RAM-only: the single-engine baselines must
// reject them instead of silently ignoring them.
func TestEngineRejectedForBaselines(t *testing.T) {
	for _, m := range []repro.Method{repro.Greedy, repro.GRA, repro.AeStar, repro.DutchAuction, repro.EnglishAuction, repro.Glauber} {
		inst, err := repro.NewInstance(smallConfig(52))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Solve(m, &repro.Options{Sync: true}); err == nil {
			t.Fatalf("%s accepted the Sync engine selection", m)
		}
	}
}

// RecordEvents and OnEvent must expose the solve's decision stream.
func TestSolveEvents(t *testing.T) {
	inst, err := repro.NewInstance(smallConfig(53))
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	res, err := inst.Solve(repro.AGTRAM, &repro.Options{
		RecordEvents: true,
		OnEvent:      func(repro.Event) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("RecordEvents produced no events")
	}
	if streamed != len(res.Events) {
		t.Fatalf("OnEvent saw %d events, recorder kept %d", streamed, len(res.Events))
	}
	if len(res.Events) != res.Rounds {
		t.Fatalf("%d events for %d rounds", len(res.Events), res.Rounds)
	}
	for i, ev := range res.Events {
		if ev.Round != i+1 {
			t.Fatalf("event %d has round %d, want 1-based sequence", i, ev.Round)
		}
		if ev.Server < 0 || ev.Object < 0 {
			t.Fatalf("event %d missing placement: %+v", i, ev)
		}
	}
	// Without the flags the stream stays off.
	quiet, err := inst.Solve(repro.AGTRAM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(quiet.Events) != 0 {
		t.Fatalf("events recorded without RecordEvents: %d", len(quiet.Events))
	}
}

// The method table is the registry's view: complete, labelled, described.
func TestMethodTable(t *testing.T) {
	table := repro.MethodTable()
	methods := repro.Methods()
	if len(table) != len(methods) {
		t.Fatalf("table has %d rows for %d methods", len(table), len(methods))
	}
	for i, info := range table {
		if info.Method != methods[i] {
			t.Fatalf("row %d is %q, want %q (paper order)", i, info.Method, methods[i])
		}
		if info.Label == "" || info.Description == "" {
			t.Fatalf("%s: missing label or description", info.Method)
		}
		if !repro.KnownMethod(info.Method) {
			t.Fatalf("%s not resolvable through the registry", info.Method)
		}
	}
	if repro.KnownMethod("simulated-annealing") {
		t.Fatal("unregistered method reported as known")
	}
	if got := repro.MethodLabel("nope"); got != "nope" {
		t.Fatalf("unknown label = %q, want pass-through", got)
	}
}

// The README's method table is generated from repro.MethodTable. This test
// regenerates it and compares, so docs and registry cannot drift apart.
func TestReadmeMethodTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(readme)
	begin := strings.Index(s, "<!-- methods:begin")
	end := strings.Index(s, "<!-- methods:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("README.md is missing the methods:begin / methods:end markers")
	}
	block := s[begin:end]
	block = block[strings.Index(block, "-->")+len("-->"):]

	var want strings.Builder
	want.WriteString("\n| Method | `repro.Method` | What it is |\n|---|---|---|\n")
	for _, info := range repro.MethodTable() {
		fmt.Fprintf(&want, "| %s | `%s` | %s |\n", info.Label, info.Method, info.Description)
	}
	if strings.TrimSpace(block) != strings.TrimSpace(want.String()) {
		t.Fatalf("README method table drifted from the registry.\nhave:\n%s\nwant:\n%s", block, want.String())
	}
}
