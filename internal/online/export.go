package online

import (
	"fmt"
	"sort"

	"repro/internal/replication"
)

// DemandEntry is one (server, object) demand cell on the wire.
type DemandEntry struct {
	Server int   `json:"server"`
	Object int32 `json:"object"`
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
}

// StateSnapshot is the wire form of a controller's mutable state: everything
// a fresh controller needs to continue from the same workload, minus the cost
// oracle (shared by configuration, not shipped). The cluster coordinator
// ships compacted snapshots (CompactRegion) to shard daemons on every
// (re-)assignment; demand is sorted by (server, object) so the encoding is
// deterministic.
type StateSnapshot struct {
	Capacity []int64       `json:"capacity"`
	Active   []bool        `json:"active"`
	Sizes    []int64       `json:"sizes"`
	Primary  []int32       `json:"primary"`
	Retired  []bool        `json:"retired"`
	Demand   []DemandEntry `json:"demand"`
}

// Validate checks the snapshot's internal consistency.
func (s *StateSnapshot) Validate() error {
	m, n := len(s.Capacity), len(s.Sizes)
	if m < 1 {
		return fmt.Errorf("online: state snapshot has no servers")
	}
	if len(s.Active) != m {
		return fmt.Errorf("online: state snapshot active has %d entries, want %d", len(s.Active), m)
	}
	if len(s.Primary) != n || len(s.Retired) != n {
		return fmt.Errorf("online: state snapshot primary/retired have %d/%d entries, want %d",
			len(s.Primary), len(s.Retired), n)
	}
	for i, c := range s.Capacity {
		if c < 0 {
			return fmt.Errorf("online: state snapshot capacity[%d] = %d is negative", i, c)
		}
	}
	for k, p := range s.Primary {
		if p < 0 || int(p) >= m {
			return fmt.Errorf("online: state snapshot primary[%d] = %d outside [0,%d)", k, p, m)
		}
	}
	for i, d := range s.Demand {
		if d.Server < 0 || d.Server >= m {
			return fmt.Errorf("online: state snapshot demand[%d] server %d outside [0,%d)", i, d.Server, m)
		}
		if d.Object < 0 || int(d.Object) >= n {
			return fmt.Errorf("online: state snapshot demand[%d] object %d outside [0,%d)", i, d.Object, n)
		}
		if d.Reads < 0 || d.Writes < 0 {
			return fmt.Errorf("online: state snapshot demand[%d] has negative frequencies", i)
		}
	}
	return nil
}

// ExportState snapshots the controller's mutable state in wire form.
func (c *Controller) ExportState() *StateSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	snap := &StateSnapshot{
		Capacity: append([]int64(nil), st.capacity...),
		Active:   append([]bool(nil), st.active...),
		Sizes:    append([]int64(nil), st.sizes...),
		Primary:  append([]int32(nil), st.primary...),
		Retired:  append([]bool(nil), st.retired...),
	}
	for i, cells := range st.demand {
		keys := make([]int32, 0, len(cells))
		for k := range cells {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, k := range keys {
			cell := cells[k]
			snap.Demand = append(snap.Demand, DemandEntry{
				Server: i, Object: k, Reads: cell.reads, Writes: cell.writes,
			})
		}
	}
	return snap
}

// NewFromState builds a controller over an exported state snapshot — the
// shard daemon's entry point: the coordinator ships a regional StateSnapshot,
// the shard rebuilds its regional controller from it. The cost oracle is the
// receiver's own (both sides construct it from the shared instance
// configuration).
func NewFromState(cost replication.CostFn, snap *StateSnapshot, cfg Config) (*Controller, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	if cost.N() < len(snap.Capacity) {
		return nil, fmt.Errorf("online: cost oracle covers %d servers, snapshot needs %d", cost.N(), len(snap.Capacity))
	}
	st := &state{
		cost:     cost,
		capacity: append([]int64(nil), snap.Capacity...),
		active:   append([]bool(nil), snap.Active...),
		sizes:    append([]int64(nil), snap.Sizes...),
		primary:  append([]int32(nil), snap.Primary...),
		retired:  append([]bool(nil), snap.Retired...),
		demand:   make([]map[int32]*demandCell, len(snap.Capacity)),
	}
	for i := range st.demand {
		st.demand[i] = map[int32]*demandCell{}
	}
	for _, d := range snap.Demand {
		if d.Reads == 0 && d.Writes == 0 {
			continue
		}
		st.demand[d.Server][d.Object] = &demandCell{reads: d.Reads, writes: d.Writes}
	}
	return newController(st, cfg)
}

// InstallPlacement carries an externally computed placement (per-object
// replica lists, Schema.Matrix form) onto the live instance and publishes it
// as a merge epoch: the coordinator installs the union of regional winners,
// a shard installs the carry the coordinator shipped with its assignment.
// Infeasible replicas are dropped by the carry-over (returned count); the
// installed placement becomes the drift baseline, like a solve.
func (c *Controller) InstallPlacement(matrix [][]int32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.epoch.Load()
	carried, dropped := cur.Problem.CarryOver(matrix)
	c.publishLocked(cur, &Epoch{Problem: cur.Problem, Schema: carried, Version: cur.Version + 1, Cause: CauseMerge})
	c.carriedDrops += int64(dropped)
	c.solvedSavings = carried.Savings()
	c.drift = 0
	return dropped
}

// InstallSchema publishes an externally carried schema as a merge epoch
// without re-carrying it: the cluster merge already built the carried
// schema (CarryOver plus the boundary exchange's refinements) against the
// mirror's problem, and carrying its matrix a second time would repeat the
// placement work just to reproduce the same schema. The schema must have
// been built against the controller's current Problem — the caller
// serializes installs with delta application; if the problem moved anyway,
// the matrix is re-carried as InstallPlacement would. dropped is the
// carry's drop count, folded into the controller's accounting.
func (c *Controller) InstallSchema(sch *replication.Schema, dropped int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.epoch.Load()
	if sch.Problem() != cur.Problem {
		carried, d := cur.Problem.CarryOver(sch.Matrix())
		sch, dropped = carried, dropped+d
	}
	c.publishLocked(cur, &Epoch{Problem: cur.Problem, Schema: sch, Version: cur.Version + 1, Cause: CauseMerge})
	c.carriedDrops += int64(dropped)
	c.solvedSavings = sch.Savings()
	c.drift = 0
	return dropped
}

// RouteDeltas splits a batch for per-region forwarding. Demand deltas go to
// the owning server's region; catalogue deltas (add/remove object) are
// global — every region's instance must agree on the object shape — and are
// replicated into every sub-batch. Membership deltas (server join/leave)
// cannot be forwarded piecemeal: they change the partition itself, so the
// caller must re-assign regions from fresh state instead of forwarding
// (membership reports whether the batch contains any).
func RouteDeltas(ds []Delta, regionOf func(server int) int, regions int) (perRegion [][]Delta, membership bool, err error) {
	perRegion = make([][]Delta, regions)
	for i, d := range ds {
		switch d.Kind {
		case KindServerJoin, KindServerLeave:
			membership = true
		case KindDemand:
			r := regionOf(d.Server)
			if r < 0 || r >= regions {
				return nil, false, fmt.Errorf("online: delta %d: server %d maps to region %d outside [0,%d)", i, d.Server, r, regions)
			}
			perRegion[r] = append(perRegion[r], d)
		default:
			for r := range perRegion {
				perRegion[r] = append(perRegion[r], d)
			}
		}
	}
	return perRegion, membership, nil
}
