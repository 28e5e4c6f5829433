package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/agtram"
	"repro/internal/candidates"
	"repro/internal/distoracle"
	"repro/internal/online"
	"repro/internal/pool"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// inputs are a generated instance before any oracle exists.
type inputs struct {
	w    *workload.Workload
	g    *topology.Graph
	caps []int64
}

// generate builds the instance inputs from the seed: the workload model,
// a G(n, p) topology and the capacities.
func generate(tr *tracer, sh shape, seed int64, parent int32) (inputs, error) {
	var in inputs
	var err error
	sp := tr.start("workload.gen", parent, 0)
	in.w, err = workload.Synthetic(workload.SyntheticConfig{
		Servers: sh.Servers, Objects: sh.Objects, Requests: sh.Requests, RWRatio: sh.RW, Seed: seed,
	})
	tr.finish(sp)
	if err != nil {
		return in, fmt.Errorf("workload: %w", err)
	}
	rng := stats.NewRNG(stats.Mix64(seed, 11))
	sp = tr.start("topology.gen", parent, 0)
	in.g, err = topology.Random(sh.Servers, sh.EdgeP, topology.DefaultWeights, rng)
	tr.finish(sp)
	if err != nil {
		return in, fmt.Errorf("topology: %w", err)
	}
	sp = tr.start("replication.capacities", parent, 0)
	in.caps, err = replication.GenerateCapacities(in.w, sh.CapPct, rng)
	tr.finish(sp)
	if err != nil {
		return in, fmt.Errorf("capacities: %w", err)
	}
	return in, nil
}

// buildProblem runs the oracle build and the problem index over inputs.
func buildProblem(tr *tracer, sh shape, in inputs, parent int32, req int64) (*replication.Problem, error) {
	sp := tr.start("distoracle.build", parent, req)
	cost, err := distoracle.Build(in.g, distoracle.Options{Mode: sh.Oracle})
	tr.finish(sp)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	sp = tr.start("replication.problem", parent, req)
	p, err := replication.NewProblem(cost, in.w, in.caps)
	tr.finish(sp)
	if err != nil {
		return nil, fmt.Errorf("problem: %w", err)
	}
	return p, nil
}

// checkSchema holds a placement to the model's invariants and to an exact
// recomputation of its cost.
func checkSchema(r *run, what string, s *replication.Schema) {
	if err := s.ValidateInvariants(); err != nil {
		r.fail("%s: invariants: %v", what, err)
	}
	if got, want := s.RecomputeCost(), s.TotalCost(); got != want {
		r.fail("%s: recomputed cost %d != reported %d", what, got, want)
	}
}

// kernelLayers puts the solver's per-layer metrics, res being a solve of
// p. The arena build runs inside the solver; a separate BuildArena on p
// times it from outside, and agtram.solve_ms is the median traced solve
// minus that.
func kernelLayers(r *run, tr *tracer, p *replication.Problem, res *agtram.Result) {
	pl := pool.New(0)
	for i := 0; i < 3; i++ {
		sp := tr.start("candidates.arena", 0, int64(i))
		candidates.BuildArena(p, pl)
		tr.finish(sp)
	}
	pl.Close()
	arenaMs := median(ms(tr.durations("candidates.arena")))
	r.put("candidates.arena_ms", arenaMs)
	r.put("agtram.solve_ms", median(ms(tr.durations("agtram.solve")))-arenaMs)
	r.put("agtram.rounds", float64(res.Rounds))
	r.put("agtram.valuations", float64(res.Valuations))
}

// applyDemand adds a batch of demand deltas (from the service workloads'
// stream, so only already-demanded cells) to w in place, keeping its
// per-object aggregates in step.
func applyDemand(w *workload.Workload, ds []online.Delta) error {
	for _, d := range ds {
		row := w.PerServer[d.Server]
		j := sort.Search(len(row), func(j int) bool { return row[j].Object >= d.Object })
		if j == len(row) || row[j].Object != d.Object {
			return fmt.Errorf("demand delta on undemanded cell (%d, %d)", d.Server, d.Object)
		}
		row[j].Reads += d.Reads
		row[j].Writes += d.Writes
		w.TotalReads[d.Object] += d.Reads
		w.TotalWrites[d.Object] += d.Writes
	}
	return nil
}

// offlinePass runs an offline workload. Set-up generates the inputs. The
// first half of the window repeats the whole placement (oracle build,
// problem index, solve) from them; placement_s is the median. The second
// half alternates an update — a demand batch from the service workloads'
// net-zero stream, then the problem index and a solve on the built oracle,
// which is what an offline user re-runs when demand changes — with a cold
// re-solve of the problem the update built. Every second batch takes the
// previous one back, and its placement must be the base instance's again.
func offlinePass(r *run, ps passSpec) error {
	tr := ps.tr
	var in inputs
	var setup []time.Duration
	for i := 0; ps.moreSetups(setup); i++ {
		runtime.GC()
		t0 := time.Now()
		root := tr.start("setup", 0, int64(i))
		var err error
		in, err = generate(tr, ps.shape, ps.seed, root)
		tr.finish(root)
		setup = append(setup, time.Since(t0))
		if err != nil {
			return err
		}
	}

	var (
		placements, updates, solves []time.Duration
		p                           *replication.Problem
		res                         *agtram.Result
		base                        float64
		rowStats                    *distoracle.CacheStats
	)
	// solve runs one solve of p under a span of the caller's operation.
	solve := func(what string, parent int32, req int64) error {
		sp := tr.start("agtram.solve", parent, req)
		var err error
		res, err = agtram.SolveIncremental(r.ctx, p, agtram.Config{})
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	}
	// same checks the last solve's placement, after its timing, and holds
	// its savings to want: the solver is deterministic in the problem.
	same := func(what string, want float64) {
		checkSchema(r, what, res.Schema)
		if got := res.Schema.Savings(); got != want {
			r.fail("%s: savings %.10f differ from %.10f", what, got, want)
		}
	}
	half := ps.window / 2
	start := time.Now()
	for req := int64(0); len(placements) == 0 || time.Since(start) < half; req++ {
		// The previous placement's oracle is garbage before the next one
		// is built, so peak_rss_mib does not depend on how many fit.
		p, res = nil, nil
		runtime.GC()
		r.attempted++
		t0 := time.Now()
		root := tr.start("placement", 0, req)
		var err error
		p, err = buildProblem(tr, ps.shape, in, root, req)
		if err == nil {
			err = solve(fmt.Sprintf("placement %d", req), root, req)
		}
		tr.finish(root)
		if err != nil {
			return err
		}
		placements = append(placements, time.Since(t0))
		if req == 0 {
			base = res.Schema.Savings()
		}
		same(fmt.Sprintf("placement %d", req), base)
		if cs, ok := p.Cost.(interface{ Stats() distoracle.CacheStats }); ok {
			st := cs.Stats()
			rowStats = &st
		}
	}

	var cells [][2]int32
	for i, ds := range in.w.PerServer {
		for _, d := range ds {
			cells = append(cells, [2]int32{int32(i), d.Object})
		}
	}
	st := &stream{rng: stats.NewRNG(stats.Mix64(ps.seed, 29)), cells: cells}
	cost := p.Cost
	start = time.Now()
	for i := 0; i == 0 || time.Since(start) < half; i++ {
		// Each operation starts on a settled heap, so the previous one's
		// garbage is not collected inside its timing.
		runtime.GC()
		r.attempted++
		req := int64(2 * i)
		t0 := time.Now()
		root := tr.start("update", 0, req)
		err := applyDemand(in.w, st.batch(i))
		if err == nil {
			sp := tr.start("replication.problem", root, req)
			p, err = replication.NewProblem(cost, in.w, in.caps)
			tr.finish(sp)
		}
		if err == nil {
			err = solve(fmt.Sprintf("update %d", i), root, req)
		}
		tr.finish(root)
		if err != nil {
			return err
		}
		updates = append(updates, time.Since(t0))
		updated := res.Schema.Savings()
		if i%2 == 1 {
			same(fmt.Sprintf("update %d (demand back to the base)", i), base)
		} else {
			checkSchema(r, fmt.Sprintf("update %d", i), res.Schema)
		}

		runtime.GC()
		r.attempted++
		t0 = time.Now()
		if err := solve(fmt.Sprintf("re-solve %d", i), 0, req+1); err != nil {
			return err
		}
		solves = append(solves, time.Since(t0))
		same(fmt.Sprintf("re-solve %d", i), updated)
	}

	fmt.Fprintf(r.out, "  oracle=%s M=%d N=%d cells=%d replicas=%d rounds=%d setups=%d placements=%d\n",
		distoracle.Kind(p.Cost), p.M, p.N, p.Cells(), res.Schema.Placed(), res.Rounds, len(setup), len(placements))
	r.putPct("setup_s", secs(setup), 0.5)
	r.putPct("placement_s", secs(placements), 0.5)
	r.putPct("update_ms.p50", ms(updates), 0.5)
	printPct(r.out, "update_ms.p90", "ms", ms(updates), 0.9)
	r.putPct("solve_ms.p50", ms(solves), 0.5)
	printPct(r.out, "solve_ms.p90", "ms", ms(solves), 0.9)
	r.put("savings_pct", base)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.put("peak_rss_mib", rss)
	if rowStats != nil {
		fmt.Fprintf(r.out, "  row cache (last placement): misses=%d hits=%d evictions=%d cached=%d\n",
			rowStats.Misses, rowStats.Hits, rowStats.Evictions, rowStats.CachedRows)
	}
	if tr == nil {
		return nil
	}

	r.put("workload.gen_s", median(secs(tr.durations("workload.gen"))))
	r.put("topology.gen_s", median(secs(tr.durations("topology.gen"))))
	r.put("distoracle.build_s", median(secs(tr.durations("distoracle.build"))))
	r.put("replication.problem_s", median(secs(tr.durations("replication.problem"))))
	kernelLayers(r, tr, p, res)
	if rowStats != nil {
		r.put("distoracle.row_misses", float64(rowStats.Misses))
		r.put("distoracle.row_hits", float64(rowStats.Hits))
		r.put("distoracle.row_evictions", float64(rowStats.Evictions))
		r.put("distoracle.row_hit_ratio", float64(rowStats.Hits)/float64(rowStats.Hits+rowStats.Misses))
	}
	// Accounting: each operation's self time is what the layer calls
	// under it do not cover.
	for _, op := range []string{"placement", "update"} {
		total, self := median(secs(tr.durations(op))), median(secs(tr.selfTimes(op)))
		fmt.Fprintf(r.out, "accounting %s: total=%.4fs layer calls=%.4fs unaccounted=%.4fs\n",
			op, total, total-self, self)
	}
	return nil
}
