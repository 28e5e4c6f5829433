// Package agtram implements the paper's contribution: the Axiomatic Game
// Theoretical Replica Allocation Mechanism (AGT-RAM) of Section 4 and
// Figure 2.
//
// Each server is a selfish agent holding private valuations — the cost of
// replication CoR_ik of every object it could host. In every round all
// agents, in parallel, compute their dominant (best) valuation and report
// only that single number to the central mechanism; the mechanism picks the
// globally best report, replicates that object on that server, pays the
// winner the second-best report, and broadcasts the placement so every
// agent can update its nearest-neighbor table. The loop ends when no agent
// has a beneficial feasible replica left.
//
// Four engines share the same agent logic and produce identical
// allocations and payments:
//
//   - Solve: synchronous rounds with the per-agent scans fanned out over a
//     worker pool (the PARFOR loops of Figure 2, reproduced literally);
//   - SolveIncremental: the event-driven default — cached dominant bids in
//     lazy max-heaps, re-pricing only the agents a broadcast can actually
//     have changed (see incremental.go);
//   - SolveTCP: the semi-distributed deployment — one agent per server,
//     holding purely local state and speaking a gob wire protocol (hello,
//     then one bid up and one award down per round) to the central
//     mechanism over TCP (see wire.go);
//   - SolveNetwork: the same protocol and mechanism over in-process
//     net.Pipe links instead of sockets.
package agtram

import (
	"sort"

	"repro/internal/replication"
)

// candidate is one entry of an agent's list L_i: an object the agent might
// replicate, with the locally cached state needed to price it in O(1).
type candidate struct {
	object int32
	size   int64
	reads  int64
	nnCost int32 // agent-local copy of c(i, NN_ik); only ever decreases
	// updCost is the constant update-traffic term of CoR:
	// (Σ_{x≠i} w_xk) · o_k · c(P_k, i).
	updCost int64
}

// benefit is the agent's private valuation CoR_ik (Eq. 5's essence).
func (c *candidate) benefit() int64 {
	return c.reads*c.size*int64(c.nnCost) - c.updCost
}

// agentState is the purely local state of one agent. It never reads the
// shared schema after construction: placements reach it only through
// observe, exactly as broadcasts reach a remote server.
type agentState struct {
	id       int
	residual int64
	cands    []candidate // sorted by object id
}

// newAgentState builds agent i's candidate list L_i from the public problem
// data and the agent's private demand: every object the agent reads, except
// those whose primary already sits on the agent's server, priced against
// the initial (primary-only) placement.
func newAgentState(p *replication.Problem, i int) *agentState {
	a := &agentState{id: i, residual: p.Capacity[i] - p.PrimaryLoad(i)}
	w := p.Work
	for _, d := range w.PerServer[i] {
		if d.Reads == 0 {
			continue // a write-only object can never benefit from a local copy
		}
		k := d.Object
		if int(w.Primary[k]) == i {
			continue // the primary copy is already local
		}
		pk := int(w.Primary[k])
		c := candidate{
			object:  k,
			size:    w.ObjectSize[k],
			reads:   d.Reads,
			nnCost:  p.Cost.At(i, pk),
			updCost: (w.TotalWrites[k] - d.Writes) * w.ObjectSize[k] * int64(p.Cost.At(pk, i)),
		}
		if c.benefit() > 0 && c.size <= a.residual {
			a.cands = append(a.cands, c)
		}
	}
	sort.Slice(a.cands, func(x, y int) bool { return a.cands[x].object < a.cands[y].object })
	return a
}

// newAgentStateFrom builds agent i's candidate list priced against an
// existing placement instead of the primary-only start: nearest-neighbor
// costs come from the base schema's NN tables, residual capacity from its
// accounting, and objects the agent already replicates are excluded. With a
// primary-only base it is equivalent to newAgentState. It reads the schema
// but never mutates it.
func newAgentStateFrom(s *replication.Schema, i int) *agentState {
	p := s.Problem()
	w := p.Work
	a := &agentState{id: i, residual: s.Residual(i)}
	for _, d := range w.PerServer[i] {
		if d.Reads == 0 {
			continue // a write-only object can never benefit from a local copy
		}
		k := d.Object
		if s.HasReplica(k, i) {
			continue // a copy (primary or carried replica) is already local
		}
		pk := int(w.Primary[k])
		c := candidate{
			object:  k,
			size:    w.ObjectSize[k],
			reads:   d.Reads,
			nnCost:  p.Cost.At(i, int(s.NN(i, k))),
			updCost: (w.TotalWrites[k] - d.Writes) * w.ObjectSize[k] * int64(p.Cost.At(pk, i)),
		}
		if c.benefit() > 0 && c.size <= a.residual {
			a.cands = append(a.cands, c)
		}
	}
	// PerServer demand is sorted by object, so cands already is.
	return a
}

// observe processes the broadcast "object k was replicated on server m":
// the agent refreshes its nearest-neighbor cost for k if the new replica is
// closer. cost is c(id, m), computed by the agent from public knowledge.
func (a *agentState) observe(k int32, cost int32) {
	idx := sort.Search(len(a.cands), func(j int) bool { return a.cands[j].object >= k })
	if idx < len(a.cands) && a.cands[idx].object == k && cost < a.cands[idx].nnCost {
		a.cands[idx].nnCost = cost
	}
}

// best returns the agent's dominant valuation: the candidate with the
// highest positive benefit that still fits in the residual capacity.
// Candidates that can never become attractive again — benefit is
// non-increasing (nnCost only drops) and residual capacity only shrinks —
// are pruned permanently, which is what drives termination.
func (a *agentState) best() (obj int32, value int64, ok bool) {
	out := a.cands[:0]
	var bestVal int64
	var bestObj int32
	found := false
	for _, c := range a.cands {
		if c.size > a.residual {
			continue // prune: residual only shrinks
		}
		b := c.benefit()
		if b <= 0 {
			continue // prune: benefit only shrinks
		}
		out = append(out, c)
		if !found || b > bestVal || (b == bestVal && c.object < bestObj) {
			bestVal, bestObj, found = b, c.object, true
		}
	}
	a.cands = out
	return bestObj, bestVal, found
}

// won records that the agent's bid for object k was accepted: the replica
// is now local, capacity shrinks, and the candidate leaves the list.
func (a *agentState) won(k int32) {
	idx := sort.Search(len(a.cands), func(j int) bool { return a.cands[j].object >= k })
	if idx < len(a.cands) && a.cands[idx].object == k {
		a.residual -= a.cands[idx].size
		a.cands = append(a.cands[:idx], a.cands[idx+1:]...)
	}
}

// active reports whether the agent still has candidates (the LS membership
// of Figure 2, line 18).
func (a *agentState) active() bool { return len(a.cands) > 0 }
