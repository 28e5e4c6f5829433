// Package repro is the public API of the AGT-RAM reproduction: building
// Data Replication Problem (DRP) instances — from a statistical model, or
// from synthetic World Cup 1998-style access traces — and solving them with
// the paper's semi-distributed axiomatic game-theoretical mechanism
// (AGT-RAM), any of the five baselines the paper compares against
// (greedy, genetic/GRA, Aε-Star branch and bound, Dutch auction, English
// auction), or the Glauber-dynamics annealing extension.
//
// A minimal session:
//
//	inst, err := repro.NewInstance(repro.InstanceConfig{
//		Servers: 64, Objects: 400, Requests: 50000,
//		RWRatio: 0.9, CapacityPercent: 20, Seed: 1,
//	})
//	...
//	res, err := inst.Solve(repro.AGTRAM, nil)
//	fmt.Printf("OTC saved: %.1f%%\n", res.SavingsPercent)
//
// The quality metric throughout is the paper's: the percentage of Object
// Transfer Cost saved relative to the primary-copies-only placement.
package repro

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/agtram"
	"repro/internal/distoracle"
	"repro/internal/faultnet"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"

	// Every method package registers itself with the solver registry from
	// an init function; the facade dispatches by name only.
	_ "repro/internal/astar"
	_ "repro/internal/auction"
	_ "repro/internal/genetic"
	_ "repro/internal/glauber"
	_ "repro/internal/greedy"
)

// TopologyKind selects the network generator family of the experimental
// setup (Section 5 of the paper).
type TopologyKind string

// Supported topology families.
const (
	// TopologyRandom is the paper's default: a flat G(M, p) random graph
	// (GT-ITM's "pure random" method).
	TopologyRandom TopologyKind = "random"
	// TopologyWaxman places nodes in the unit square and wires them with
	// distance-dependent probability.
	TopologyWaxman TopologyKind = "waxman"
	// TopologyPowerLaw grows a preferential-attachment graph, the family
	// Inet produces for AS-level Internet maps.
	TopologyPowerLaw TopologyKind = "powerlaw"
	// TopologyTransitStub builds a GT-ITM-style two-level hierarchy.
	TopologyTransitStub TopologyKind = "transitstub"
	// TopologyTree grows a random recursive tree with weighted edges — the
	// family served by the exact O(1)-query tree distance oracle.
	TopologyTree TopologyKind = "tree"
	// TopologyGrid arranges servers in a near-square unit-weight grid.
	TopologyGrid TopologyKind = "grid"
)

// InstanceConfig describes a synthetic DRP instance.
type InstanceConfig struct {
	Servers  int // M
	Objects  int // N
	Requests int // total read+write volume to distribute

	// RWRatio is the read share of the request volume, in (0, 1].
	RWRatio float64
	// CapacityPercent sizes each server's storage at about this percentage
	// of the total object catalogue size (uniformly jittered in [0.5, 1.5)
	// of the target, never below the server's primary load), as in the
	// paper's setups. Must be positive.
	CapacityPercent float64

	// Topology selects the generator (default TopologyRandom).
	Topology TopologyKind
	// EdgeP is the edge probability for TopologyRandom (default 0.4, the
	// paper's first setting).
	EdgeP float64

	// Oracle selects the distance oracle backing c(i,j): "auto" (the
	// default — exact tree oracle on trees, dense matrix up to
	// distoracle.DenseAutoThreshold servers, lazy CSR above), "dense",
	// "csr", "landmark" (approximate), or "tree".
	Oracle string
	// Landmarks is the landmark count K for Oracle == "landmark"
	// (default distoracle.DefaultLandmarks; K = M is exact).
	Landmarks int
	// RowCacheRows bounds the CSR oracle's LRU row cache (default
	// distoracle.DefaultRowCacheRows).
	RowCacheRows int

	Seed int64
}

func (c InstanceConfig) withDefaults() InstanceConfig {
	if c.Topology == "" {
		c.Topology = TopologyRandom
	}
	if c.EdgeP == 0 {
		c.EdgeP = 0.4
	}
	return c
}

// Instance is a fully built DRP instance ready to be solved. Solving never
// mutates the instance: every Solve call starts from the primary-only
// placement.
type Instance struct {
	cfg  InstanceConfig
	prob *replication.Problem

	// Retained only for trace-driven instances, enabling Replay.
	trace     *trace.Log
	clientMap workload.ClientMap
}

// NewInstance builds the network, the workload and the capacities.
func NewInstance(cfg InstanceConfig) (*Instance, error) {
	cfg = cfg.withDefaults()
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers:  cfg.Servers,
		Objects:  cfg.Objects,
		Requests: cfg.Requests,
		RWRatio:  cfg.RWRatio,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return assemble(cfg, w)
}

// TraceConfig re-exports the synthetic World Cup 1998 trace model.
type TraceConfig = trace.Config

// Trace is an access trace plus its object catalogue.
type Trace = trace.Log

// GenerateTrace produces one synthetic access trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// GenerateFridays produces n independent trace instances, mirroring the
// paper's 13 Friday logs.
func GenerateFridays(cfg TraceConfig, n int) ([]*Trace, error) { return trace.Fridays(cfg, n) }

// NewInstanceFromTrace replays a trace into a DRP instance: clients are
// mapped onto servers with the paper's random 1-M mapping, demand is
// aggregated per (server, object), primaries land on random servers.
func NewInstanceFromTrace(tr *Trace, cfg InstanceConfig) (*Instance, error) {
	cfg = cfg.withDefaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	r := stats.NewRNG(stats.Mix64(cfg.Seed, 7))
	cm, err := workload.MapClients(int(tr.Clients), cfg.Servers, r)
	if err != nil {
		return nil, err
	}
	w, err := workload.FromTrace(tr, cm, cfg.Servers, r)
	if err != nil {
		return nil, err
	}
	inst, err := assemble(cfg, w)
	if err != nil {
		return nil, err
	}
	inst.trace = tr
	inst.clientMap = cm
	return inst, nil
}

func assemble(cfg InstanceConfig, w *workload.Workload) (*Instance, error) {
	r := stats.NewRNG(stats.Mix64(cfg.Seed, 11))
	var g *topology.Graph
	var err error
	switch cfg.Topology {
	case TopologyRandom:
		g, err = topology.Random(cfg.Servers, cfg.EdgeP, topology.DefaultWeights, r)
	case TopologyWaxman:
		g, err = topology.Waxman(cfg.Servers, 0.8, 0.3, topology.DefaultWeights, r)
	case TopologyPowerLaw:
		g, err = topology.PowerLaw(cfg.Servers, 2, topology.DefaultWeights, r)
	case TopologyTransitStub:
		g, err = transitStubFor(cfg.Servers, r)
	case TopologyTree:
		g, err = topology.RandomTree(cfg.Servers, topology.DefaultWeights, r)
	case TopologyGrid:
		g = gridFor(cfg.Servers)
	default:
		return nil, fmt.Errorf("repro: unknown topology kind %q", cfg.Topology)
	}
	if err != nil {
		return nil, err
	}
	mode, err := distoracle.ParseMode(cfg.Oracle)
	if err != nil {
		return nil, err
	}
	cost, err := distoracle.Build(g, distoracle.Options{
		Mode:         mode,
		Landmarks:    cfg.Landmarks,
		RowCacheRows: cfg.RowCacheRows,
	})
	if err != nil {
		return nil, err
	}
	caps, err := replication.GenerateCapacities(w, cfg.CapacityPercent, r)
	if err != nil {
		return nil, err
	}
	prob, err := replication.NewProblem(cost, w, caps)
	if err != nil {
		return nil, err
	}
	return &Instance{cfg: cfg, prob: prob}, nil
}

// gridFor arranges servers in the most-square grid whose dimensions
// multiply to exactly the server count (a prime count degenerates to a
// 1×M line).
func gridFor(servers int) *topology.Graph {
	rows := 1
	for r := 1; r*r <= servers; r++ {
		if servers%r == 0 {
			rows = r
		}
	}
	return topology.Grid(rows, servers/rows)
}

// transitStubFor picks transit-stub parameters that land at least cfg
// servers, then trims by building with exact sizes when possible.
func transitStubFor(servers int, r *stats.RNG) (*topology.Graph, error) {
	// Shape: d transit domains of 4 nodes, 2 stubs of s nodes per transit
	// node: total = 4d(1+2s). Solve for small d, s covering `servers`.
	for d := 1; d <= 8; d++ {
		base := 4 * d
		rest := servers - base
		if rest <= 0 {
			continue
		}
		s := rest / (base * 2)
		if s >= 1 && base*(1+2*s) == servers {
			return topology.TransitStub(topology.TransitStubConfig{
				TransitDomains:  d,
				TransitSize:     4,
				StubsPerTransit: 2,
				StubSize:        s,
				IntraP:          0.4,
			}, r)
		}
	}
	return nil, fmt.Errorf("repro: no transit-stub shape with exactly %d servers; use a multiple of 4d(1+2s)", servers)
}

// Servers reports M.
func (in *Instance) Servers() int { return in.prob.M }

// Objects reports N.
func (in *Instance) Objects() int { return in.prob.N }

// BaseOTC reports the OTC of the primary-copies-only placement.
func (in *Instance) BaseOTC() int64 { return in.prob.NewSchema().TotalCost() }

// Config returns the instance's configuration.
func (in *Instance) Config() InstanceConfig { return in.cfg }

// OracleKind names the distance oracle the instance was assembled with
// ("dense", "csr-lazy", "landmark", "tree").
func (in *Instance) OracleKind() string { return distoracle.Kind(in.prob.Cost) }

// Problem exposes the underlying model for in-module consumers (the bench
// harness); external users interact through Solve.
func (in *Instance) Problem() *replication.Problem { return in.prob }

// Method identifies a replica placement method.
type Method string

// The six methods of the paper's comparison, plus the Glauber-dynamics
// annealing extension (Etesami, PAPERS.md).
const (
	AGTRAM         Method = "agt-ram"
	Greedy         Method = "greedy"
	GRA            Method = "gra"
	AeStar         Method = "ae-star"
	DutchAuction   Method = "da"
	EnglishAuction Method = "ea"
	Glauber        Method = "glauber"
)

// Methods lists every method: the paper's six in its presentation order,
// then the Glauber extension.
func Methods() []Method {
	return []Method{GRA, AeStar, Greedy, AGTRAM, DutchAuction, EnglishAuction, Glauber}
}

// KnownMethod reports whether m resolves through the solver registry.
func KnownMethod(m Method) bool {
	_, ok := solver.Lookup(string(m))
	return ok
}

// MethodLabel returns the short human label the method registered for
// itself ("AGT-RAM" for "agt-ram"); unknown methods pass through unchanged.
func MethodLabel(m Method) string {
	if s, ok := solver.Lookup(string(m)); ok {
		if info, ok := s.(solver.Info); ok {
			return info.Label()
		}
	}
	return string(m)
}

// MethodInfo describes one registered method, straight from the registry.
type MethodInfo struct {
	Method      Method
	Label       string
	Description string
}

// MethodTable lists every method of Methods() with the label and one-line
// description its solver registered. The README's method table is generated
// from (and tested against) this, so the docs cannot drift from the code.
func MethodTable() []MethodInfo {
	out := make([]MethodInfo, 0, len(Methods()))
	for _, m := range Methods() {
		mi := MethodInfo{Method: m, Label: string(m)}
		if s, ok := solver.Lookup(string(m)); ok {
			if info, ok := s.(solver.Info); ok {
				mi.Label = info.Label()
				mi.Description = info.Description()
			}
		}
		out = append(out, mi)
	}
	return out
}

// Options tunes a Solve call; nil or zero fields select the defaults used
// throughout the paper reproduction.
type Options struct {
	// Workers bounds parallel fan-out for methods that have one.
	Workers int
	// Seed feeds the randomized methods (GRA).
	Seed int64
	// Sync forces AGT-RAM's synchronous engine (the literal PARFOR rescan
	// of Figure 2) instead of the default event-driven incremental one.
	// Both produce identical allocations and payments; the incremental
	// engine just performs far fewer valuation computations.
	Sync bool
	// Network runs AGT-RAM's wire protocol over in-process net.Pipe
	// links: the TCP engine's protocol without sockets; the allocations
	// are identical.
	Network bool
	// TCPAddr, when non-empty, runs AGT-RAM over real loopback TCP sockets
	// listening on this address (use "127.0.0.1:0" for an ephemeral port).
	TCPAddr string
	// FirstPrice switches AGT-RAM's payment rule (truthfulness ablation).
	FirstPrice bool
	// ExactValuation switches AGT-RAM's agents to exact global deltas
	// (valuation ablation; incompatible with the wire engines, Network and
	// TCPAddr, and always served by the synchronous engine since it prices
	// against shared global state).
	ExactValuation bool
	// GRAGenerations overrides the GA's generation budget.
	GRAGenerations int
	// GlauberSweeps overrides the Glauber chain's annealing-sweep budget.
	GlauberSweeps int
	// RoundTimeout bounds each per-agent bid read and award write in the
	// AGT-RAM wire engines (Network, TCPAddr); an agent that misses a
	// deadline is evicted from the game and the auction continues over the
	// remaining bidders. Zero means no deadline.
	RoundTimeout time.Duration
	// Faults injects deterministic faults into the AGT-RAM wire engines'
	// links for testing (nil = none; the fault-free run is bit-identical
	// to the incremental and synchronous engines). Requires Network or
	// TCPAddr.
	Faults *FaultConfig
	// OnEvent, when non-nil, observes every placement the solver commits,
	// synchronously and in commit order (and every eviction, marked by
	// Event.Evicted).
	OnEvent func(Event)
	// RecordEvents collects the placement stream into Result.Events.
	RecordEvents bool
}

// FaultConfig describes deterministic faults to inject into the AGT-RAM
// wire engines: per-agent drop probability (severing the link), delivery
// delay, crash-at-round schedules, refused dials and truncated frames. See
// the field docs in internal/faultnet.
type FaultConfig = faultnet.Config

// Eviction records one agent's removal from a distributed game: the
// mechanism timed the agent out or lost its connection and continued with
// the remaining bidders. Round 0 means the agent never entered the game
// (dial failure or handshake timeout).
type Eviction struct {
	Agent  int
	Round  int
	Reason string
}

func (o *Options) orDefault() Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// solverOptions validates the engine-selection fields and lowers Options to
// the registry's method-independent form. Exactly one engine may be
// selected, and the ExactValuation ablation cannot run on a wire engine
// (agents would need the global schema the paper denies them).
func (o Options) solverOptions() (solver.Options, error) {
	var selected []string
	if o.Sync {
		selected = append(selected, "Sync")
	}
	if o.Network {
		selected = append(selected, "Network")
	}
	if o.TCPAddr != "" {
		selected = append(selected, "TCPAddr")
	}
	if len(selected) > 1 {
		return solver.Options{}, fmt.Errorf("repro: conflicting engine selections %s: each Solve call picks exactly one engine",
			strings.Join(selected, " and "))
	}
	if o.ExactValuation && len(selected) == 1 && selected[0] != "Sync" {
		return solver.Options{}, fmt.Errorf("repro: ExactValuation conflicts with %s: exact global deltas need shared schema state, which only the synchronous engine has",
			selected[0])
	}
	if (o.Faults.Enabled() || o.RoundTimeout > 0) && !o.Network && o.TCPAddr == "" {
		return solver.Options{}, fmt.Errorf("repro: Faults and RoundTimeout apply to the wire engines only: select Network or TCPAddr")
	}
	so := solver.Options{
		Workers:        o.Workers,
		Seed:           o.Seed,
		TCPAddr:        o.TCPAddr,
		FirstPrice:     o.FirstPrice,
		ExactValuation: o.ExactValuation,
		GRAGenerations: o.GRAGenerations,
		GlauberSweeps:  o.GlauberSweeps,
		RoundTimeout:   o.RoundTimeout,
		Faults:         o.Faults,
		RecordEvents:   o.RecordEvents,
	}
	switch {
	case o.TCPAddr != "":
		so.Engine = agtram.EngineTCP
	case o.Network:
		so.Engine = agtram.EngineNetwork
	case o.Sync:
		so.Engine = agtram.EngineSync
	}
	if o.OnEvent != nil {
		cb := o.OnEvent
		so.OnEvent = func(e solver.Event) { cb(Event(e)) }
	}
	return so, nil
}

// Event is one committed placement decision of a solve: round-by-round for
// AGT-RAM (with the Vickrey payment), placement-by-placement for greedy and
// the auctions, per generation/expansion (Object and Server are -1) for GRA
// and Aε-Star.
type Event struct {
	Round   int
	Object  int32
	Server  int32
	Value   int64
	Payment int64
	// Evicted marks an eviction event rather than a placement: Server is
	// the evicted agent, Round the round it was removed in (0 = before
	// the game started), Object is -1.
	Evicted bool
}

// Result reports a solved placement.
type Result struct {
	Method         Method
	OTC            int64         // final object transfer cost
	BaseOTC        int64         // primary-only OTC
	SavingsPercent float64       // the paper's metric
	Replicas       int           // replicas placed beyond primaries
	Runtime        time.Duration // wall-clock solve time
	// Work is the method's dominant operation count (valuations, benefit
	// evaluations, node expansions, clock polls or schema decodings).
	Work int64
	// Rounds counts mechanism rounds (AGT-RAM), passes (auctions) or
	// generations (GRA); zero for the single-sweep methods.
	Rounds int
	// Payments holds AGT-RAM's cumulative per-server motivational payments.
	Payments []int64
	// Events is the placement stream, recorded when Options.RecordEvents
	// was set.
	Events []Event
	// Evictions lists the agents the AGT-RAM wire engines removed from the
	// game (timeouts, broken links, failed dials, invalid bids), in
	// eviction order; empty for the incremental and synchronous engines and
	// for fault-free runs.
	Evictions []Eviction

	schema *replication.Schema
}

// WriteReport serializes the solved placement as an auditable JSON report:
// the full replica sets, per-server utilization and the OTC decomposition.
func (r *Result) WriteReport(w io.Writer) error {
	if r.schema == nil {
		return fmt.Errorf("repro: result carries no placement")
	}
	return r.schema.Report().WriteJSON(w)
}

// Breakdown decomposes the solved placement's OTC into read, update-ship
// and update-broadcast traffic.
func (r *Result) Breakdown() (read, ship, broadcast int64, err error) {
	if r.schema == nil {
		return 0, 0, 0, fmt.Errorf("repro: result carries no placement")
	}
	b := r.schema.Breakdown()
	return b.ReadCost, b.ShipCost, b.BroadcastCost, nil
}

// ReplayMetrics summarizes an event-by-event replay of the instance's
// trace against a solved placement.
type ReplayMetrics struct {
	Events        int
	TransferCost  int64
	ReadCost      int64
	WriteCost     int64
	LocalReads    int
	LoadImbalance float64 // Gini of per-server traffic, 0 = even
	MeanReadCost  float64
	P99ReadCost   float64
}

// Replay routes every event of the trace this instance was built from
// against the placement a Solve call produced, returning realized traffic
// metrics. The realized transfer cost equals the analytical OTC exactly.
// Only available on instances built with NewInstanceFromTrace.
func (in *Instance) Replay(res *Result) (*ReplayMetrics, error) {
	if in.trace == nil {
		return nil, fmt.Errorf("repro: Replay needs a trace-driven instance (NewInstanceFromTrace)")
	}
	if res == nil || res.schema == nil {
		return nil, fmt.Errorf("repro: Replay needs a solved result")
	}
	m, err := sim.Replay(in.trace, in.clientMap, res.schema)
	if err != nil {
		return nil, err
	}
	summary := m.ReadCostSummary()
	return &ReplayMetrics{
		Events:        m.Events,
		TransferCost:  m.TransferCost,
		ReadCost:      m.ReadCost,
		WriteCost:     m.WriteCost,
		LocalReads:    m.LocalReads,
		LoadImbalance: m.LoadImbalance(),
		MeanReadCost:  summary.Mean,
		P99ReadCost:   summary.P99,
	}, nil
}

// Solve runs the given method against the instance. It is the
// context.Background shim over SolveContext.
func (in *Instance) Solve(m Method, opts *Options) (*Result, error) {
	return in.SolveContext(context.Background(), m, opts)
}

// SolveContext runs the given method against the instance, dispatching
// through the solver registry. Every method honours ctx: cancellation is
// observed at least once per round / generation / expansion / clock tick,
// returns an error wrapping ctx.Err(), and leaves the instance untouched
// (every solve starts from a fresh primary-only schema).
func (in *Instance) SolveContext(ctx context.Context, m Method, opts *Options) (*Result, error) {
	s, ok := solver.Lookup(string(m))
	if !ok {
		return nil, fmt.Errorf("repro: unknown method %q (registered: %s)",
			m, strings.Join(solver.Names(), ", "))
	}
	so, err := opts.orDefault().solverOptions()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out, err := s.Solve(ctx, in.prob, so)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Method:         m,
		OTC:            out.Schema.TotalCost(),
		BaseOTC:        out.Schema.BaseCost(),
		SavingsPercent: out.Schema.Savings(),
		Replicas:       out.Replicas,
		Runtime:        time.Since(start),
		Work:           out.Work,
		Rounds:         out.Rounds,
		Payments:       out.Payments,
		schema:         out.Schema,
	}
	if len(out.Events) > 0 {
		res.Events = make([]Event, len(out.Events))
		for i, e := range out.Events {
			res.Events[i] = Event(e)
		}
	}
	if len(out.Evictions) > 0 {
		res.Evictions = make([]Eviction, len(out.Evictions))
		for i, ev := range out.Evictions {
			res.Evictions[i] = Eviction(ev)
		}
	}
	return res, nil
}
