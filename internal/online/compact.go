package online

import (
	"fmt"
	"sort"

	"repro/internal/replication"
)

// Compaction: where a mask keeps the full M×N shape and merely zeroes
// non-member capacity (the reference restriction in export_test.go that
// Compact is checked against), Compact rebuilds the regional instance at
// M'×N' — the member servers, the objects they either own (primary) or
// demand, and the boundary servers that hold primaries of demanded objects —
// together with a dense index mapping in each direction. Shard-side arena
// construction, kernel rounds and distance-oracle rows are then all sized to
// the region; placements, payments and deltas cross the RPC boundary through
// the mapping.
//
// The two restrictions are solution-equivalent: an object nobody in the
// region demands and no member owns contributes no cost term and no
// candidate, and a boundary server enters with capacity 0, which the
// materialized instance clamps to exactly its primary load — it can anchor
// read/write distances but never host a surplus replica. Regional placements
// therefore remain disjoint across regions, exactly as under the mask.
//
// Compacting with every server a member is the identity: Servers and Objects
// are the identity mappings and State is a deep copy of the input snapshot.
// That property is what keeps a 1-shard cluster bit-identical to the single
// daemon, and is pinned by the property tests and fuzzer in export_test.go.

// CompactRegion is one regional sub-instance on the wire: the compacted
// snapshot plus the dense index mapping back to global coordinates.
// Servers[i'] is the global id of regional server i'; Objects[k'] likewise
// for objects. Both are strictly ascending at construction; AppendObject
// extends Objects as the coordinator allocates new global ids.
//
// The reverse indexes are built lazily and are not shipped. A CompactRegion
// is not safe for concurrent use — each owner (coordinator, shard) guards
// its copy with its own lock.
type CompactRegion struct {
	State   *StateSnapshot `json:"state"`
	Servers []int32        `json:"servers"`
	Objects []int32        `json:"objects"`

	serverOf map[int32]int32 // global -> local
	objectOf map[int32]int32 // global -> local
}

// Compact restricts the snapshot to a member subset, rebuilding it in
// region-local coordinates. Kept objects: every object whose primary is a
// member (retired ones included — their primary copy still occupies
// storage) plus every object a member demands. Kept servers: the members
// plus the boundary primaries of kept objects; boundary servers lose their
// declared capacity, as masked non-members do. Member ids outside the
// snapshot are ignored. Demand order (sorted by server, then object) is
// preserved because both mappings are monotone.
func (s *StateSnapshot) Compact(members []int32) *CompactRegion {
	m, n := len(s.Capacity), len(s.Sizes)
	member := make([]bool, m)
	for _, i := range members {
		if i >= 0 && int(i) < m {
			member[i] = true
		}
	}
	keepObj := make([]bool, n)
	for k, p := range s.Primary {
		if member[p] {
			keepObj[k] = true
		}
	}
	for _, d := range s.Demand {
		if member[d.Server] {
			keepObj[d.Object] = true
		}
	}
	keepSrv := make([]bool, m)
	copy(keepSrv, member)
	for k, kept := range keepObj {
		if kept {
			keepSrv[s.Primary[k]] = true
		}
	}

	r := &CompactRegion{State: &StateSnapshot{}}
	srvOf := make([]int32, m)
	for i := range srvOf {
		srvOf[i] = -1
	}
	for i, kept := range keepSrv {
		if !kept {
			continue
		}
		srvOf[i] = int32(len(r.Servers))
		r.Servers = append(r.Servers, int32(i))
		cap := s.Capacity[i]
		if !member[i] {
			cap = 0
		}
		r.State.Capacity = append(r.State.Capacity, cap)
		r.State.Active = append(r.State.Active, s.Active[i])
	}
	objOf := make([]int32, n)
	for k := range objOf {
		objOf[k] = -1
	}
	for k, kept := range keepObj {
		if !kept {
			continue
		}
		objOf[k] = int32(len(r.Objects))
		r.Objects = append(r.Objects, int32(k))
		r.State.Sizes = append(r.State.Sizes, s.Sizes[k])
		r.State.Primary = append(r.State.Primary, srvOf[s.Primary[k]])
		r.State.Retired = append(r.State.Retired, s.Retired[k])
	}
	for _, d := range s.Demand {
		if !member[d.Server] {
			continue
		}
		r.State.Demand = append(r.State.Demand, DemandEntry{
			Server: int(srvOf[d.Server]),
			Object: objOf[d.Object],
			Reads:  d.Reads,
			Writes: d.Writes,
		})
	}
	return r
}

// ensureIndex builds the global→local reverse maps if absent. Idempotent;
// called under the owner's lock.
func (r *CompactRegion) ensureIndex() {
	if r.serverOf == nil {
		r.serverOf = make(map[int32]int32, len(r.Servers))
		for l, g := range r.Servers {
			r.serverOf[g] = int32(l)
		}
	}
	if r.objectOf == nil {
		r.objectOf = make(map[int32]int32, len(r.Objects))
		for l, g := range r.Objects {
			r.objectOf[g] = int32(l)
		}
	}
}

// LocalServer maps a global server id into the region.
func (r *CompactRegion) LocalServer(global int) (int, bool) {
	r.ensureIndex()
	l, ok := r.serverOf[int32(global)]
	return int(l), ok
}

// LocalObject maps a global object id into the region.
func (r *CompactRegion) LocalObject(global int32) (int32, bool) {
	r.ensureIndex()
	l, ok := r.objectOf[global]
	return l, ok
}

// GlobalServer maps a regional server index back to its global id.
func (r *CompactRegion) GlobalServer(local int) (int, bool) {
	if local < 0 || local >= len(r.Servers) {
		return 0, false
	}
	return int(r.Servers[local]), true
}

// GlobalObject maps a regional object index back to its global id.
func (r *CompactRegion) GlobalObject(local int32) (int32, bool) {
	if local < 0 || int(local) >= len(r.Objects) {
		return 0, false
	}
	return r.Objects[local], true
}

// AppendObject extends the object mapping with a newly allocated global id
// (the regional instance appends objects densely, so the new local id is the
// current N'). Both coordinator and shard apply the same extension as
// add-object deltas flow, keeping their copies aligned.
func (r *CompactRegion) AppendObject(global int32) int32 {
	r.ensureIndex()
	l := int32(len(r.Objects))
	r.Objects = append(r.Objects, global)
	r.objectOf[global] = l
	return l
}

// CarryToLocal translates a global placement matrix (rows per global object,
// replica lists of global server ids) into the region: one row per regional
// object, replicas restricted to mapped servers. Replicas on boundary
// servers survive translation and are then dropped by the carry-over's
// capacity check, mirroring the mask's treatment of non-member replicas.
func (r *CompactRegion) CarryToLocal(matrix [][]int32) [][]int32 {
	if matrix == nil {
		return nil
	}
	r.ensureIndex()
	out := make([][]int32, len(r.Objects))
	for l, g := range r.Objects {
		if int(g) >= len(matrix) || matrix[g] == nil {
			continue
		}
		row := make([]int32, 0, len(matrix[g]))
		for _, srv := range matrix[g] {
			if ls, ok := r.serverOf[srv]; ok {
				row = append(row, ls)
			}
		}
		out[l] = row
	}
	return out
}

// MatrixToGlobal translates a regional placement matrix back to global
// coordinates over n global objects. Objects outside the mapping get nil
// rows — the caller unions rows across regions.
func (r *CompactRegion) MatrixToGlobal(local [][]int32, n int) [][]int32 {
	out := make([][]int32, n)
	for l, row := range local {
		if l >= len(r.Objects) || row == nil {
			continue
		}
		g := r.Objects[l]
		grow := make([]int32, 0, len(row))
		for _, ls := range row {
			if int(ls) < len(r.Servers) {
				grow = append(grow, r.Servers[ls])
			}
		}
		out[g] = grow
	}
	return out
}

// PaymentsToGlobal accumulates a regional payment vector into a global one.
func (r *CompactRegion) PaymentsToGlobal(local []int64, into []int64) {
	for l, v := range local {
		if v == 0 || l >= len(r.Servers) {
			continue
		}
		g := r.Servers[l]
		if int(g) < len(into) {
			into[g] += v
		}
	}
}

// TranslateDeltas converts a coordinator-forwarded batch from global to
// region-local coordinates. Demand and remove-object deltas must reference
// mapped servers/objects; add-object deltas carry the coordinator-stamped
// global id in Object and extend the mapping. The extension is *not* applied
// immediately: the returned commit func applies it, and the caller invokes
// it only after the local batch was accepted by the controller — a rejected
// batch must leave the mapping exactly as it was.
func (r *CompactRegion) TranslateDeltas(ds []Delta) (local []Delta, commit func(), err error) {
	r.ensureIndex()
	var pending []int32 // global ids of objects appended by this batch
	lookupObject := func(g int32) (int32, bool) {
		if l, ok := r.objectOf[g]; ok {
			return l, true
		}
		for i, pg := range pending {
			if pg == g {
				return int32(len(r.Objects) + i), true
			}
		}
		return 0, false
	}
	local = make([]Delta, 0, len(ds))
	for i, d := range ds {
		switch d.Kind {
		case KindDemand:
			ls, ok := r.serverOf[int32(d.Server)]
			if !ok {
				return nil, nil, fmt.Errorf("online: delta %d: server %d is not in the region", i, d.Server)
			}
			lk, ok := lookupObject(d.Object)
			if !ok {
				return nil, nil, fmt.Errorf("online: delta %d: object %d is not in the region", i, d.Object)
			}
			d.Server, d.Object = int(ls), lk
			local = append(local, d)
		case KindAddObject:
			lp, ok := r.serverOf[int32(d.Primary)]
			if !ok {
				return nil, nil, fmt.Errorf("online: delta %d: add-object primary %d is not in the region", i, d.Primary)
			}
			pending = append(pending, d.Object)
			d.Primary = int(lp)
			d.Object = int32(len(r.Objects) + len(pending) - 1) // informational: apply() assigns ids densely
			local = append(local, d)
		case KindRemoveObject:
			lk, ok := lookupObject(d.Object)
			if !ok {
				return nil, nil, fmt.Errorf("online: delta %d: object %d is not in the region", i, d.Object)
			}
			d.Object = lk
			local = append(local, d)
		default:
			return nil, nil, fmt.Errorf("online: delta %d: %s deltas cannot be translated into a region", i, d.Kind)
		}
	}
	commit = func() {
		for _, g := range pending {
			r.AppendObject(g)
		}
	}
	return local, commit, nil
}

// RouteDeltasCompact is the mapping-aware successor of RouteDeltas: it
// splits a global batch into per-region batches keyed by shard id, consults
// each region's mapping, and decides when forwarding is impossible and the
// caller must re-assign from fresh state instead:
//
//   - membership deltas change the partition itself (as before);
//   - a demand delta for an object outside the owner's region means the
//     compaction no longer covers the live demand pattern — the region must
//     be rebuilt to include the object and its boundary primary.
//
// Add-object deltas are stamped with their freshly allocated global object
// id (ids are dense: nextObject is the mirror's N before the batch) and
// routed only to the primary's region, whose mapping is extended in place —
// the receiving shard applies the same extension, keeping the two aligned.
// Remove-object deltas go to every region that maps the object. When
// reassign or err is returned no forwarding may happen at all; the fresh
// assignment snapshot already reflects the whole batch.
func RouteDeltasCompact(ds []Delta, regionOf func(server int) int, regions map[int]*CompactRegion, nextObject int32) (perRegion map[int][]Delta, reassign bool, err error) {
	ids := make([]int, 0, len(regions))
	for id := range regions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	perRegion = make(map[int][]Delta, len(regions))
	for i, d := range ds {
		switch d.Kind {
		case KindServerJoin, KindServerLeave:
			return nil, true, nil
		case KindDemand:
			r := regionOf(d.Server)
			reg := regions[r]
			if r < 0 || reg == nil {
				return nil, false, fmt.Errorf("online: delta %d: server %d maps to unknown region %d", i, d.Server, r)
			}
			if _, ok := reg.LocalObject(d.Object); !ok {
				return nil, true, nil
			}
			perRegion[r] = append(perRegion[r], d)
		case KindAddObject:
			r := regionOf(d.Primary)
			reg := regions[r]
			if r < 0 || reg == nil {
				return nil, false, fmt.Errorf("online: delta %d: add-object primary %d maps to unknown region %d", i, d.Primary, r)
			}
			d.Object = nextObject
			nextObject++
			reg.AppendObject(d.Object)
			perRegion[r] = append(perRegion[r], d)
		case KindRemoveObject:
			for _, r := range ids {
				if _, ok := regions[r].LocalObject(d.Object); ok {
					perRegion[r] = append(perRegion[r], d)
				}
			}
		default:
			return nil, false, fmt.Errorf("online: delta %d: unknown kind %q", i, d.Kind)
		}
	}
	return perRegion, false, nil
}

// NewFromCompact builds a regional controller from a compacted sub-instance:
// the snapshot is already in region coordinates, and the global cost oracle
// is restricted to the region's servers through the mapping. For a
// full-membership region SubsetCost returns the oracle unchanged, so the
// 1-shard cluster runs the very same code path as the single daemon.
func NewFromCompact(cost replication.CostFn, region *CompactRegion, cfg Config) (*Controller, error) {
	if region == nil || region.State == nil {
		return nil, fmt.Errorf("online: nil compact region")
	}
	if len(region.Servers) != len(region.State.Capacity) || len(region.Objects) != len(region.State.Sizes) {
		return nil, fmt.Errorf("online: compact region mapping %dx%d does not match state %dx%d",
			len(region.Servers), len(region.Objects), len(region.State.Capacity), len(region.State.Sizes))
	}
	for _, g := range region.Servers {
		if g < 0 || int(g) >= cost.N() {
			return nil, fmt.Errorf("online: compact region server %d outside cost oracle [0,%d)", g, cost.N())
		}
	}
	return NewFromState(replication.SubsetCost(cost, region.Servers), region.State, cfg)
}
