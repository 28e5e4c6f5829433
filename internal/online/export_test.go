package online

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/distoracle"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/testutil"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestExportMaskRoundTrip pins the cluster's state-shipping contract: a
// controller rebuilt from an exported snapshot materializes the identical
// problem, and a full-membership mask is the identity.
func TestExportMaskRoundTrip(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(31))
	a, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.ApplyDeltas([]Delta{
		{Kind: KindDemand, Server: 2, Object: 5, Reads: 99, Writes: 3},
		{Kind: KindServerLeave, Server: 7},
	}); err != nil {
		t.Fatal(err)
	}

	snap := a.ExportState()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	all := make([]int32, p.M)
	for i := range all {
		all[i] = int32(i)
	}
	if !reflect.DeepEqual(snap, snap.mask(all)) {
		t.Fatal("full-membership mask is not the identity")
	}

	b, err := NewFromState(p.Cost, snap, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pa, pb := a.Current().Problem, b.Current().Problem
	if !reflect.DeepEqual(pa.Capacity, pb.Capacity) {
		t.Fatal("capacities diverged through export")
	}
	if err := a.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Current().Schema.Matrix(), b.Current().Schema.Matrix()) {
		t.Fatal("rebuilt controller solved to a different placement")
	}

	// A partial mask zeroes non-member capacity and drops their demand.
	members := []int32{0, 1, 2}
	masked := snap.mask(members)
	for i, c := range masked.Capacity {
		if i <= 2 {
			if c != snap.Capacity[i] {
				t.Fatalf("member %d capacity changed: %d -> %d", i, snap.Capacity[i], c)
			}
		} else if c != 0 {
			t.Fatalf("non-member %d kept capacity %d", i, c)
		}
	}
	for _, d := range masked.Demand {
		if d.Server > 2 {
			t.Fatalf("non-member demand survived the mask: %+v", d)
		}
	}
}

// TestInstallPlacementPublishesMerge pins the mirror path the coordinator
// uses: installing a placement publishes exactly one epoch with CauseMerge
// and resets drift.
func TestInstallPlacementPublishesMerge(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(37))
	ctrl, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	matrix := ctrl.Current().Schema.Matrix()
	v := ctrl.Current().Version
	if dropped := ctrl.InstallPlacement(matrix); dropped != 0 {
		t.Fatalf("feasible placement dropped %d replicas", dropped)
	}
	e := ctrl.Current()
	if e.Version != v+1 {
		t.Fatalf("install published version %d, want %d", e.Version, v+1)
	}
	if e.Cause != CauseMerge {
		t.Fatalf("install cause %q, want %q", e.Cause, CauseMerge)
	}
	if drift := ctrl.Metrics().Drift; drift != 0 {
		t.Fatalf("drift after install = %v, want 0", drift)
	}
}

// TestRouteDeltasSplitsByRegion pins the coordinator's forwarding table.
func TestRouteDeltasSplitsByRegion(t *testing.T) {
	regionOf := func(server int) int {
		if server < 4 {
			return 0
		}
		return 1
	}
	ds := []Delta{
		{Kind: KindDemand, Server: 1, Object: 0, Reads: 1},
		{Kind: KindDemand, Server: 5, Object: 2, Reads: 1},
		{Kind: KindAddObject, Object: 9, Size: 4, Primary: 0},
	}
	per, membership, err := RouteDeltas(ds, regionOf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if membership {
		t.Fatal("demand-only batch flagged as membership")
	}
	if len(per[0]) != 2 || len(per[1]) != 2 {
		t.Fatalf("split %d/%d, want 2/2 (catalogue delta replicated)", len(per[0]), len(per[1]))
	}
	if _, membership, _ = RouteDeltas([]Delta{{Kind: KindServerLeave, Server: 1}}, regionOf, 2); !membership {
		t.Fatal("leave delta not flagged as membership")
	}
	if _, _, err = RouteDeltas([]Delta{{Kind: KindDemand, Server: 2, Object: 0, Reads: 1}}, func(int) int { return -1 }, 2); err == nil {
		t.Fatal("unassigned server routed without error")
	}
}

// TestMetricsRowCacheSurfaced pins the /metrics satellite: when the cost
// oracle is the lazy CSR with its LRU row cache, the controller's metrics
// expose the hit/miss/eviction counters as row_cache.
func TestMetricsRowCacheSurfaced(t *testing.T) {
	testutil.LeakCheck(t)
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: 16, Objects: 40, Requests: 4000, RWRatio: 0.8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(6)
	g, err := topology.Random(16, 0.3, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := distoracle.Build(g, distoracle.Options{Mode: distoracle.ModeCSR})
	if err != nil {
		t.Fatal(err)
	}
	caps, err := replication.GenerateCapacities(w, 30, r)
	if err != nil {
		t.Fatal(err)
	}
	p, err := replication.NewProblem(cost, w, caps)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := ctrl.Metrics()
	if m.RowCache == nil {
		t.Fatal("metrics over a CSR oracle carry no row_cache")
	}
	if m.RowCache.Hits+m.RowCache.Misses == 0 {
		t.Fatal("row cache counters all zero after a solve")
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["row_cache"]; !ok {
		t.Fatalf("row_cache missing from metrics JSON: %s", blob)
	}

	// A dense oracle has no counters to surface, and must not fabricate any.
	pd := testutil.MustBuild(testutil.Small(41))
	dense, err := New(pd.Cost, pd.Work, pd.Capacity, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	if dense.Metrics().RowCache != nil {
		t.Fatal("dense oracle reported a row cache")
	}
}

// rowsEqual compares two placement matrices row by row, treating nil and
// empty rows alike (translation materializes empty rows that the source may
// have left nil).
func rowsEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestCompactFullMembershipIdentity pins the determinism boundary of the
// compaction: compacting with every server a member yields the identity
// index mappings and a state deep-equal to both the input snapshot and the
// full-membership mask. This is the property that keeps a 1-shard cluster
// bit-identical to the single daemon.
func TestCompactFullMembershipIdentity(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(31))
	a, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.ApplyDeltas([]Delta{
		{Kind: KindDemand, Server: 3, Object: 7, Reads: 12, Writes: 1},
		{Kind: KindServerLeave, Server: 11},
	}); err != nil {
		t.Fatal(err)
	}
	snap := a.ExportState()

	all := make([]int32, p.M)
	for i := range all {
		all[i] = int32(i)
	}
	full := snap.Compact(all)
	for i, g := range full.Servers {
		if int(g) != i {
			t.Fatalf("full-membership server mapping is not the identity: Servers[%d] = %d", i, g)
		}
	}
	for k, g := range full.Objects {
		if int(g) != k {
			t.Fatalf("full-membership object mapping is not the identity: Objects[%d] = %d", k, g)
		}
	}
	if !reflect.DeepEqual(full.State, snap) {
		t.Fatal("full-membership compaction changed the snapshot")
	}
	if !reflect.DeepEqual(full.State, snap.mask(all)) {
		t.Fatal("full-membership compaction and mask disagree")
	}

	// The compacted controller must follow the single daemon exactly.
	b, err := NewFromCompact(p.Cost, full, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Current().Schema.Matrix(), b.Current().Schema.Matrix()) {
		t.Fatal("full-membership compact controller solved to a different placement")
	}
	if !reflect.DeepEqual(a.LastSolvePayments(), b.LastSolvePayments()) {
		t.Fatal("full-membership compact controller paid differently")
	}
}

// TestCompactRoundTripPlacementsAndPayments pins the translation contract
// the cluster merge depends on: a regional solve over a compacted
// sub-instance translates to global coordinates and back without losing or
// inventing a single replica or payment unit.
func TestCompactRoundTripPlacementsAndPayments(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(53))
	a, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	snap := a.ExportState()

	members := []int32{1, 3, 4, 7, 9, 12}
	comp := snap.Compact(members)
	if err := comp.State.Validate(); err != nil {
		t.Fatalf("compacted state invalid: %v", err)
	}
	// The mapping covers every member and round-trips in both directions.
	for _, g := range members {
		l, ok := comp.LocalServer(int(g))
		if !ok {
			t.Fatalf("member %d missing from the compacted region", g)
		}
		if back, ok := comp.GlobalServer(l); !ok || back != int(g) {
			t.Fatalf("server %d -> %d -> %d did not round-trip", g, l, back)
		}
	}
	for l := range comp.Objects {
		g, ok := comp.GlobalObject(int32(l))
		if !ok {
			t.Fatalf("local object %d has no global id", l)
		}
		if back, ok := comp.LocalObject(g); !ok || back != int32(l) {
			t.Fatalf("object %d -> %d -> %d did not round-trip", l, g, back)
		}
	}

	ctrl, err := NewFromCompact(p.Cost, comp, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	local := ctrl.Current().Schema.Matrix()
	global := comp.MatrixToGlobal(local, p.N)
	for g, row := range global {
		if row != nil {
			if _, ok := comp.LocalObject(int32(g)); !ok {
				t.Fatalf("translation invented global object %d", g)
			}
		}
	}
	if back := comp.CarryToLocal(global); !rowsEqual(local, back) {
		t.Fatal("placement did not round-trip through the global translation")
	}

	pay := ctrl.LastSolvePayments()
	if pay == nil {
		t.Fatal("regional solve produced no payments")
	}
	globalPay := make([]int64, p.M)
	comp.PaymentsToGlobal(pay, globalPay)
	var localSum, globalSum int64
	for l, v := range pay {
		localSum += v
		g, _ := comp.GlobalServer(l)
		if globalPay[g] != v {
			t.Fatalf("payment of local server %d (global %d): %d translated to %d", l, g, v, globalPay[g])
		}
	}
	for _, v := range globalPay {
		globalSum += v
	}
	if localSum != globalSum {
		t.Fatalf("payment mass changed in translation: %d -> %d", localSum, globalSum)
	}
}

// FuzzCompactRoundTrip explores Compact over arbitrary snapshots and member
// subsets: the index mappings must stay strictly ascending and bijective,
// member demand must survive translation exactly, placement matrices and
// payment vectors must round-trip through the global coordinates, and the
// full-membership compaction must stay the identity (and agree with Mask).
// Run with `go test -fuzz=FuzzCompactRoundTrip ./internal/online` to
// explore; the seed corpus runs on every plain `go test`.
func FuzzCompactRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(0x000f), []byte{1, 2, 3, 4, 5, 6})
	f.Add(int64(7), uint16(0x00a5), []byte{0xff, 0x00, 0x10, 0x81})
	f.Add(int64(13), uint16(0x0001), []byte{})
	f.Add(int64(42), uint16(0xffff), []byte{9, 9, 9, 2, 250, 17, 3})

	f.Fuzz(func(t *testing.T, seed int64, memberBits uint16, ops []byte) {
		m := 2 + int(uint64(seed)%7)
		n := int(uint64(seed)/7) % 13
		b := func(i int) byte {
			if len(ops) == 0 {
				return byte(i * 31)
			}
			return ops[i%len(ops)]
		}
		snap := &StateSnapshot{
			Capacity: make([]int64, m),
			Active:   make([]bool, m),
		}
		// Append-built so a zero-object snapshot keeps nil slices, matching
		// what ExportState and Compact produce for empty catalogues.
		for k := 0; k < n; k++ {
			snap.Sizes = append(snap.Sizes, 0)
			snap.Primary = append(snap.Primary, 0)
			snap.Retired = append(snap.Retired, false)
		}
		for i := 0; i < m; i++ {
			snap.Capacity[i] = int64(b(i) % 64)
			snap.Active[i] = b(i+1)%4 != 0
		}
		for k := 0; k < n; k++ {
			snap.Sizes[k] = 1 + int64(b(k+2)%16)
			snap.Primary[k] = int32(int(b(k+3)) % m)
			snap.Retired[k] = b(k+4)%8 == 0
		}
		for i := 0; i < m; i++ {
			for k := 0; k < n; k++ {
				v := b(i*n + k + 5)
				if v%3 == 0 {
					continue
				}
				snap.Demand = append(snap.Demand, DemandEntry{
					Server: i, Object: int32(k), Reads: int64(v % 50), Writes: int64(v % 7),
				})
			}
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("generator built an invalid snapshot: %v", err)
		}

		member := make([]bool, m)
		var members []int32
		for i := 0; i < m; i++ {
			if memberBits>>(i%16)&1 == 1 {
				member[i] = true
				members = append(members, int32(i))
			}
		}
		if len(members) == 0 {
			i := int(uint64(seed) % uint64(m))
			member[i] = true
			members = append(members, int32(i))
		}

		comp := snap.Compact(members)
		if err := comp.State.Validate(); err != nil {
			t.Fatalf("compacted state invalid: %v", err)
		}
		for l := 1; l < len(comp.Servers); l++ {
			if comp.Servers[l] <= comp.Servers[l-1] {
				t.Fatalf("server mapping not strictly ascending at %d: %v", l, comp.Servers)
			}
		}
		for l := 1; l < len(comp.Objects); l++ {
			if comp.Objects[l] <= comp.Objects[l-1] {
				t.Fatalf("object mapping not strictly ascending at %d: %v", l, comp.Objects)
			}
		}
		for l, g := range comp.Servers {
			if back, ok := comp.LocalServer(int(g)); !ok || back != l {
				t.Fatalf("server %d -> %d -> %d did not round-trip", l, g, back)
			}
			if member[g] {
				if comp.State.Capacity[l] != snap.Capacity[g] {
					t.Fatalf("member %d capacity changed: %d -> %d", g, snap.Capacity[g], comp.State.Capacity[l])
				}
			} else if comp.State.Capacity[l] != 0 {
				t.Fatalf("boundary server %d kept capacity %d", g, comp.State.Capacity[l])
			}
		}
		for _, g := range members {
			if _, ok := comp.LocalServer(int(g)); !ok {
				t.Fatalf("member %d missing from the region", g)
			}
		}
		for l, g := range comp.Objects {
			if back, ok := comp.LocalObject(g); !ok || back != int32(l) {
				t.Fatalf("object %d -> %d -> %d did not round-trip", l, g, back)
			}
			if gp := snap.Primary[g]; comp.Servers[comp.State.Primary[l]] != gp {
				t.Fatalf("object %d primary translated to %d, want %d", g, comp.Servers[comp.State.Primary[l]], gp)
			}
		}

		// Member demand survives translation exactly, in order.
		var back []DemandEntry
		for _, d := range comp.State.Demand {
			gs, ok1 := comp.GlobalServer(d.Server)
			gk, ok2 := comp.GlobalObject(d.Object)
			if !ok1 || !ok2 {
				t.Fatalf("compacted demand %+v references unmapped coordinates", d)
			}
			back = append(back, DemandEntry{Server: gs, Object: gk, Reads: d.Reads, Writes: d.Writes})
		}
		var want []DemandEntry
		for _, d := range snap.Demand {
			if member[d.Server] {
				want = append(want, d)
			}
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("demand did not survive compaction:\n got %v\nwant %v", back, want)
		}

		// An arbitrary regional placement round-trips through the global
		// coordinates, and so does an arbitrary payment vector.
		local := make([][]int32, len(comp.Objects))
		for l := range local {
			if b(l+13)%5 == 0 {
				continue
			}
			row := make([]int32, 0, len(comp.Servers))
			for srv := range comp.Servers {
				if b(l*7+srv+11)%2 == 1 {
					row = append(row, int32(srv))
				}
			}
			local[l] = row
		}
		global := comp.MatrixToGlobal(local, n)
		for g, row := range global {
			if row != nil {
				if _, ok := comp.LocalObject(int32(g)); !ok {
					t.Fatalf("translation invented global object %d", g)
				}
			}
		}
		if got := comp.CarryToLocal(global); !rowsEqual(local, got) {
			t.Fatalf("matrix did not round-trip:\n got %v\nwant %v", got, local)
		}

		pay := make([]int64, len(comp.Servers))
		var localSum int64
		for l := range pay {
			pay[l] = int64(b(l+17) % 100)
			localSum += pay[l]
		}
		globalPay := make([]int64, m)
		comp.PaymentsToGlobal(pay, globalPay)
		var globalSum int64
		for _, v := range globalPay {
			globalSum += v
		}
		if localSum != globalSum {
			t.Fatalf("payment mass changed in translation: %d -> %d", localSum, globalSum)
		}
		for l, v := range pay {
			if globalPay[comp.Servers[l]] != v {
				t.Fatalf("payment of local %d: %d translated to %d", l, v, globalPay[comp.Servers[l]])
			}
		}

		// Full membership: Compact is the identity and agrees with Mask.
		all := make([]int32, m)
		for i := range all {
			all[i] = int32(i)
		}
		full := snap.Compact(all)
		if len(full.Servers) != m || len(full.Objects) != n {
			t.Fatalf("full-membership compaction kept %dx%d of %dx%d", len(full.Servers), len(full.Objects), m, n)
		}
		if !reflect.DeepEqual(full.State, snap) {
			t.Fatal("full-membership compaction changed the snapshot")
		}
		if !reflect.DeepEqual(full.State, snap.mask(all)) {
			t.Fatal("full-membership compaction and mask disagree")
		}
	})
}

// mask restricts the snapshot to a member subset at full M×N shape — the
// reference restriction Compact is tested against: non-member servers keep
// their activity flags and primaries but lose their declared capacity (the
// materialized instance clamps them to exactly their primary load, so they
// can never host a surplus replica) and their demand. Regional games over
// masked snapshots therefore only ever place replicas on their own members —
// regional placements are disjoint by construction and merge without
// conflicts. Masking with every server a member is the identity, which is
// what makes a 1-shard cluster bit-identical to the single daemon.
func (s *StateSnapshot) mask(members []int32) *StateSnapshot {
	member := make([]bool, len(s.Capacity))
	for _, i := range members {
		if int(i) < len(member) {
			member[i] = true
		}
	}
	out := &StateSnapshot{
		Capacity: append([]int64(nil), s.Capacity...),
		Active:   append([]bool(nil), s.Active...),
		Sizes:    append([]int64(nil), s.Sizes...),
		Primary:  append([]int32(nil), s.Primary...),
		Retired:  append([]bool(nil), s.Retired...),
	}
	for i := range out.Capacity {
		if !member[i] {
			out.Capacity[i] = 0
		}
	}
	for _, d := range s.Demand {
		if member[d.Server] {
			out.Demand = append(out.Demand, d)
		}
	}
	return out
}
