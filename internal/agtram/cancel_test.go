package agtram

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/replication"
	"repro/internal/testutil"
)

// engineRuns lists every engine behind one uniform signature so the
// cancellation contract is tested identically across all four.
func engineRuns() []struct {
	name string
	run  func(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error)
} {
	return []struct {
		name string
		run  func(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error)
	}{
		{EngineSync, Solve},
		{EngineIncremental, SolveIncremental},
		{EngineNetwork, SolveNetwork},
		{EngineTCP, func(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error) {
			return SolveTCP(ctx, p, cfg, "127.0.0.1:0")
		}},
	}
}

// A context that is already cancelled must fail before the first round and
// tear down every goroutine, listener and connection the engine opened.
func TestEnginesRejectCancelledContext(t *testing.T) {
	for _, e := range engineRuns() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			testutil.LeakCheck(t)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			p := testutil.MustBuild(testutil.Small(31))
			base := p.NewSchema().TotalCost()
			res, err := e.run(ctx, p, Config{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatalf("got a result alongside the cancellation error")
			}
			// The caller's problem must be untouched: a fresh schema still
			// prices at the primary-only baseline.
			if got := p.NewSchema().TotalCost(); got != base {
				t.Fatalf("problem mutated by cancelled solve: %d vs %d", got, base)
			}
		})
	}
}

// Cancelling from inside an OnRound observer must stop the mechanism at the
// next round boundary, on every engine, without leaking goroutines.
func TestEnginesCancelMidSolve(t *testing.T) {
	for _, e := range engineRuns() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			testutil.LeakCheck(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rounds := 0
			cfg := Config{OnRound: func(Allocation) {
				rounds++
				if rounds == 2 {
					cancel()
				}
			}}
			_, err := e.run(ctx, testutil.MustBuild(testutil.Small(32)), cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v after %d rounds, want context.Canceled", err, rounds)
			}
			if rounds < 2 {
				t.Fatalf("cancelled after %d rounds, never reached the trigger", rounds)
			}
		})
	}
}

// RunRemoteAgent must unblock from its codec reads when its context dies.
func TestRunRemoteAgentCancel(t *testing.T) {
	testutil.LeakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	client, server := net.Pipe()
	defer server.Close()
	err := RunRemoteAgent(ctx, client, testutil.MustBuild(testutil.Small(33)), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
