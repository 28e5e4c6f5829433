// Package solver defines the common interface every placement method in
// this repository implements, and the registry that maps method names to
// implementations.
//
// A method package (agtram, greedy, genetic, astar, auction) registers an
// adapter from an init function; the public facade (package repro) looks the
// method up by name and calls Solve with a context. The registry is what
// makes adding a method — or a new engine behind an existing method — a
// single registration instead of a cross-cutting edit of the facade, the
// bench harness and both commands.
//
// The contract every registered solver honours:
//
//   - Solve works on a fresh Schema derived from p; the caller's Problem is
//     never mutated, even on error or cancellation.
//   - Cancellation is checked at least once per round / generation /
//     expansion / clock tick. On cancellation the solver returns
//     ctx.Err() wrapped with its package name ("agtram: context canceled")
//     and tears down every goroutine, listener and connection it started.
//   - A solve with an already-cancelled context returns before completing
//     a single round.
package solver

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/faultnet"
	"repro/internal/replication"
)

// Options carries the method-independent knobs the facade exposes. A solver
// reads what applies to it and ignores the rest (the bench harness passes
// one Options to every method).
type Options struct {
	// Workers bounds parallelism inside the solver; 0 means GOMAXPROCS.
	Workers int
	// Seed seeds any randomized search (genetic). Deterministic solvers
	// ignore it.
	Seed int64
	// Engine selects an execution engine for methods that have more than
	// one (AGT-RAM: incremental, sync, network, tcp). Empty means the
	// method's default. Methods with a single engine reject non-empty
	// values they don't recognise.
	Engine string
	// TCPAddr is the listen address for the AGT-RAM tcp engine
	// (host:port; port 0 picks a free port).
	TCPAddr string
	// FirstPrice switches AGT-RAM to first-price payments (an ablation;
	// the paper's mechanism is second-price).
	FirstPrice bool
	// ExactValuation switches AGT-RAM agents to the exact global OTC
	// delta instead of the paper's local CoR estimate.
	ExactValuation bool
	// GRAGenerations bounds the genetic method's generations; 0 means the
	// method default.
	GRAGenerations int
	// GlauberSweeps bounds the Glauber chain's annealing sweeps; 0 means
	// the method default.
	GlauberSweeps int
	// RoundTimeout bounds each per-agent read/write in the AGT-RAM wire
	// engines (network, tcp); an agent that misses a deadline is evicted.
	// Zero means no deadline. Rejected by other methods and engines.
	RoundTimeout time.Duration
	// Faults injects deterministic faults into the AGT-RAM wire engines'
	// links (nil = none). Rejected by other methods and engines.
	Faults *faultnet.Config
	// Warm, when non-nil, seeds the solve with an existing placement —
	// per-object replica server lists, the form Schema.Matrix returns —
	// instead of the primary-only start. Entries that are infeasible
	// against p (capacity shrank, server left) are silently dropped before
	// the solve. Supported by agt-ram's incremental engine, which continues
	// the auction from the carried placement; agt-ram rejects it on other
	// engines and methods without a warm path ignore it (they solve cold).
	Warm [][]int32
	// OnEvent, when non-nil, is invoked synchronously for every placement
	// the solver commits — and every eviction, for solvers that evict —
	// in commit order.
	OnEvent func(Event)
	// RecordEvents appends every placement to Outcome.Events.
	RecordEvents bool
}

// Event is one committed placement decision: round-by-round for AGT-RAM,
// placement-by-placement for the baselines (Round then counts passes,
// generations or expansions, as documented per method).
type Event struct {
	// Round is the 1-based round (AGT-RAM), pass (auctions), generation
	// (genetic) or expansion count (Aε-Star) at which the placement
	// committed.
	Round int
	// Object is the object replicated.
	Object int32
	// Server is the server that received the replica.
	Server int32
	// Value is the winning valuation/benefit/bid in OTC units.
	Value int64
	// Payment is the mechanism's payment to the winner (AGT-RAM only;
	// zero for the baselines).
	Payment int64
	// Evicted marks an eviction event rather than a placement: Server is
	// the evicted agent, Round the round it was removed in (0 = before the
	// game started), Object is -1, Value and Payment are zero.
	Evicted bool
}

// Outcome is the shared result type every solver returns.
type Outcome struct {
	// Schema is the solved placement.
	Schema *replication.Schema
	// Replicas is the number of replicas placed beyond the primaries.
	Replicas int
	// Work counts the method's dominant operation: valuations (AGT-RAM),
	// benefit evaluations (greedy, GRA), node expansions (Aε-Star) or
	// price polls (auctions).
	Work int64
	// Rounds counts mechanism rounds (AGT-RAM), passes (auctions) or
	// generations (genetic); zero for single-sweep methods.
	Rounds int
	// Payments holds the per-server mechanism payments (AGT-RAM only).
	Payments []int64
	// Events is the placement stream, populated when
	// Options.RecordEvents is set.
	Events []Event
	// Evictions lists the agents the AGT-RAM wire engines removed from
	// the game (timeouts, broken links, failed dials), in eviction order;
	// empty for every other method and for fault-free runs.
	Evictions []Eviction
}

// Eviction records one agent's removal from a distributed game: the
// mechanism timed the agent out or lost its connection and continued with
// the remaining bidders.
type Eviction struct {
	// Agent is the evicted server.
	Agent int
	// Round is the 1-based round during which the agent was evicted;
	// 0 means before the game started (dial failure or handshake timeout).
	Round int
	// Reason describes the fault, for diagnostics.
	Reason string
}

// Emit forwards ev to opts.OnEvent and records it when opts.RecordEvents is
// set. Solvers call it once per committed placement.
func (o *Outcome) Emit(opts Options, ev Event) {
	if opts.OnEvent != nil {
		opts.OnEvent(ev)
	}
	if opts.RecordEvents {
		o.Events = append(o.Events, ev)
	}
}

// Solver is one placement method.
type Solver interface {
	// Name is the registry key ("agt-ram", "greedy", ...).
	Name() string
	// Solve computes a placement for p. It must honour the package
	// contract: fresh schema, ctx checked every round, full teardown on
	// cancellation.
	Solve(ctx context.Context, p *replication.Problem, opts Options) (*Outcome, error)
}

// Info is optionally implemented by registered solvers to describe
// themselves; the README method table and cmd/agtram -all use it.
type Info interface {
	// Label is the short human name used in tables ("AGT-RAM", "GRA").
	Label() string
	// Description is a one-line summary of the method.
	Description() string
}

var (
	mu       sync.RWMutex
	registry = map[string]Solver{}
)

// Register adds s under s.Name(). It panics on a duplicate name: method
// packages register from init, and two packages claiming one name is a
// programming error.
func Register(s Solver) {
	mu.Lock()
	defer mu.Unlock()
	name := s.Name()
	if name == "" {
		panic("solver: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solver: duplicate Register(%q)", name))
	}
	registry[name] = s
}

// Lookup returns the solver registered under name.
func Lookup(name string) (Solver, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns every registered method name, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
