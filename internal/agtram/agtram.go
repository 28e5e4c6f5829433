package agtram

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/faultnet"
	"repro/internal/mechanism"
	"repro/internal/pool"
	"repro/internal/replication"
)

// Valuation selects how agents price candidate replicas.
type Valuation int

const (
	// LocalCoR is the paper's semi-distributed valuation: each agent prices
	// objects from its own reads and the public write volume only (Eq. 5).
	LocalCoR Valuation = iota
	// ExactDelta is the ablation valuation: the exact global OTC change of
	// the placement, which a real agent could not compute locally (it needs
	// every other server's NN table). Used by the valuation ablation bench.
	ExactDelta
)

// String names the valuation rule.
func (v Valuation) String() string {
	if v == ExactDelta {
		return "exact-delta"
	}
	return "local-cor"
}

// Config tunes the mechanism. The zero value is the paper's configuration.
type Config struct {
	// Workers bounds the PARFOR fan-out; <= 0 selects GOMAXPROCS.
	Workers int
	// Payment selects the payment rule (default: the paper's second-price).
	Payment mechanism.PaymentRule
	// Valuation selects the pricing rule (default: the paper's local CoR).
	Valuation Valuation
	// MaxRounds caps the number of rounds; <= 0 means unbounded.
	MaxRounds int
	// OnRound, when non-nil, observes every allocation as the mechanism
	// makes it, on every engine. Useful for tracing and live dashboards;
	// must not block.
	OnRound func(Allocation)

	// The remaining fields configure the wire engines (SolveNetwork and
	// SolveTCP) only; Solve and SolveIncremental have no link to fail.

	// RoundTimeout bounds each per-agent bid read and award write via
	// SetReadDeadline/SetWriteDeadline. An agent that misses a deadline is
	// evicted from the game. 0 means no deadline — a disconnected agent
	// still evicts promptly (its reads fail), but a live-and-silent agent
	// can stall the round.
	RoundTimeout time.Duration
	// HandshakeTimeout bounds the wire engines' connect-and-identify
	// phase; agents that have not completed the hello by then are evicted
	// before the first round. 0 selects a 10s default.
	HandshakeTimeout time.Duration
	// Faults injects deterministic faults into the wire engines' links
	// (nil = none; the fault-free run is bit-identical to Solve).
	Faults *faultnet.Config
	// OnEvict, when non-nil, observes every eviction as it happens; must
	// not block.
	OnEvict func(Eviction)
	// OnListen, when non-nil, receives the listener address once SolveTCP
	// is accepting — the only way to learn an ephemeral port while the
	// solve is still running.
	OnListen func(net.Addr)
}

// defaultHandshakeTimeout bounds the wire engines' identification phase
// when Config.HandshakeTimeout is zero: long enough for any loopback or LAN
// deployment, short enough that a dead peer cannot wedge the solve.
const defaultHandshakeTimeout = 10 * time.Second

func (c Config) handshakeTimeout() time.Duration {
	if c.HandshakeTimeout > 0 {
		return c.HandshakeTimeout
	}
	return defaultHandshakeTimeout
}

// Eviction records one agent's removal from a distributed game: the
// mechanism timed the agent out or lost its connection and continued with
// the remaining bidders (the iterative auction is well-defined over any
// live subset — each round simply takes the best of the bids that arrived).
type Eviction struct {
	// Agent is the evicted server.
	Agent int
	// Round is the 1-based round during which the agent was evicted;
	// 0 means before the game started (dial failure or handshake timeout).
	Round int
	// Reason describes the fault, for diagnostics.
	Reason string
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Allocation is one mechanism decision: in round Round, object Object was
// replicated on server Server, which had reported Value and was paid
// Payment.
type Allocation struct {
	Round   int
	Object  int32
	Server  int32
	Value   int64
	Payment int64
}

// Result is the outcome of a run.
type Result struct {
	// Schema is the final replica placement (the mechanism's accounting of
	// every binary replicate decision).
	Schema *replication.Schema
	// Allocations lists every placement in round order.
	Allocations []Allocation
	// Payments accumulates the motivational payments per server (Axiom 5).
	Payments []int64
	// Rounds is the number of mechanism rounds executed (== len(Allocations)).
	Rounds int
	// Valuations counts CoR computations across all agents: the "heavy
	// processing" that stays on the servers. Solve charges one valuation
	// per candidate scanned per round; SolveIncremental charges one per
	// candidate actually re-priced, which is the same work in round one and
	// strictly less afterwards — the allocations and payments are identical
	// either way, only this counter differs.
	Valuations int64
	// Evictions lists every agent the wire engines removed from the game
	// (timeouts, broken connections, failed dials, invalid bids), in
	// eviction order.
	// Always empty for Solve, SolveIncremental and fault-free runs.
	Evictions []Eviction
}

// Solve runs AGT-RAM with synchronous parallel rounds (Figure 2). Agents
// scan their candidate lists concurrently; the central mechanism then takes
// its single binary decision and broadcasts it.
//
// ctx is checked at the top of every round; on cancellation Solve returns
// ctx.Err() wrapped with the package name and the caller's Problem is left
// untouched (the mechanism works on a fresh schema).
func Solve(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("agtram: nil problem")
	}
	schema := p.NewSchema()
	res := &Result{Schema: schema, Payments: make([]int64, p.M)}

	agents := make([]*agentState, 0, p.M)
	for i := 0; i < p.M; i++ {
		a := newAgentState(p, i)
		if a.active() {
			agents = append(agents, a)
		}
	}

	workers := pool.New(cfg.workers())
	defer workers.Close()
	bids := make([]mechanism.Bid, 0, len(agents))
	bidSlots := make([]mechanism.Bid, len(agents))
	hasBid := make([]bool, len(agents))

	for cfg.MaxRounds <= 0 || res.Rounds < cfg.MaxRounds {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("agtram: %w", err)
		}
		if len(agents) == 0 {
			break
		}
		// PARFOR: every agent computes its dominant valuation.
		scanAgents(agents, bidSlots, hasBid, workers, cfg.Valuation, schema, &res.Valuations)

		bids = bids[:0]
		for idx := range agents {
			if hasBid[idx] {
				bids = append(bids, bidSlots[idx])
			}
		}
		round, ok := mechanism.RunRound(bids, cfg.Payment)
		if !ok {
			break
		}
		winner := round.Winner
		if err := schema.CanPlace(winner.Item, winner.Agent); err != nil {
			// Cannot happen with consistent agent state; treat as corruption.
			return nil, fmt.Errorf("agtram: winning bid infeasible: %w", err)
		}
		if _, err := schema.PlaceReplica(winner.Item, winner.Agent); err != nil {
			return nil, err
		}
		alloc := Allocation{
			Round: res.Rounds, Object: winner.Item, Server: int32(winner.Agent),
			Value: winner.Value, Payment: round.Payment,
		}
		res.Allocations = append(res.Allocations, alloc)
		res.Payments[winner.Agent] += round.Payment
		res.Rounds++
		if cfg.OnRound != nil {
			cfg.OnRound(alloc)
		}

		// BROADCAST OMAX: all agents refresh NN state; the winner also
		// consumes capacity and retires the candidate.
		live := agents[:0]
		for _, a := range agents {
			if a.id == winner.Agent {
				a.won(winner.Item)
			} else {
				a.observe(winner.Item, p.Cost.At(a.id, winner.Agent))
			}
			if a.active() {
				live = append(live, a)
			}
		}
		// bidSlots/hasBid keep their full length; only the first
		// len(agents) entries are meaningful and scanAgents rewrites all of
		// them each round, so no compaction of the buffers is needed.
		agents = live
	}
	return res, nil
}

// serialScanThreshold is the candidate-count below which a round's scan
// runs inline: dispatching goroutines for a few thousand O(1) valuations
// costs more than the scan itself.
const serialScanThreshold = 16384

// scanAgents runs the per-agent candidate scans, fanning out over the
// worker pool only when the round carries enough work to amortize the
// dispatch.
func scanAgents(agents []*agentState, bidSlots []mechanism.Bid, hasBid []bool,
	workers *pool.Pool, val Valuation, schema *replication.Schema, valuations *int64) {

	scanOne := func(idx int) int64 {
		a := agents[idx]
		n := int64(len(a.cands))
		var obj int32
		var v int64
		var ok bool
		if val == ExactDelta {
			obj, v, ok = bestExact(a, schema)
		} else {
			obj, v, ok = a.best()
		}
		hasBid[idx] = ok
		if ok {
			bidSlots[idx] = mechanism.Bid{Agent: a.id, Item: obj, Value: v}
		}
		return n
	}

	var total int64
	for _, a := range agents {
		total += int64(len(a.cands))
	}
	// ExactDelta valuations are much heavier per candidate (they read the
	// shared schema), so they amortize the pool dispatch at a far smaller
	// round size than the O(1) local pricings.
	threshold := int64(serialScanThreshold)
	if val == ExactDelta {
		threshold = 65
	}
	if workers.Workers() == 1 || total < threshold {
		for idx := range agents {
			*valuations += scanOne(idx)
		}
		return
	}
	var counted int64
	workers.Batch(len(agents), func(lo, hi int) {
		var n int64
		for idx := lo; idx < hi; idx++ {
			n += scanOne(idx)
		}
		atomic.AddInt64(&counted, n)
	})
	*valuations += counted
}

// bestExact prices the agent's candidates with the exact global OTC delta
// (read-only against the shared schema; the round barrier orders these
// reads before the mechanism's single writer applies the placement).
func bestExact(a *agentState, schema *replication.Schema) (int32, int64, bool) {
	out := a.cands[:0]
	var bestVal int64
	var bestObj int32
	found := false
	for _, c := range a.cands {
		if c.size > a.residual {
			continue
		}
		v := -schema.DeltaIfPlaced(c.object, a.id)
		if v <= 0 {
			continue
		}
		out = append(out, c)
		if !found || v > bestVal || (v == bestVal && c.object < bestObj) {
			bestVal, bestObj, found = v, c.object, true
		}
	}
	a.cands = out
	return bestObj, bestVal, found
}
