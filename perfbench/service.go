package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agtram"
	"repro/internal/cluster"
	"repro/internal/distoracle"
	"repro/internal/online"
	"repro/internal/replication"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/stats"
)

const (
	// batchDeltas is the size of one POST /deltas batch.
	batchDeltas = 64
	// routesPerVersion is the fixed sample of GET /route issued, and
	// checked against the routing client, after every visible version.
	routesPerVersion = 8
	// solveEvery: every third batch is followed by a POST /solve.
	solveEvery = 3
	// cycleBatches is one full period of the stream: add and remove
	// batches alternate and solves come every third batch, so after a
	// multiple of six batches the instance is the base instance again and
	// the last operation was a cold solve of it.
	cycleBatches = 6
	// warmupCycles are run and checked but not timed.
	warmupCycles = 2
	// visibleDeadline bounds how long a version may take to reach the
	// client; a miss counts as a failed operation and ends the pass.
	visibleDeadline = 10 * time.Second
	// clusterShards is the cluster's shard count (the benchmark host's
	// core count when the workload was sized; fixed so the workload does
	// not depend on the host).
	clusterShards = 2
	// pollWait is the routing client's long-poll window on GET /epochs.
	pollWait = 5 * time.Second
)

// service is one running daemon or cluster behind server.Server on
// loopback HTTP, with one routing client following GET /epochs.
type service struct {
	backend server.Backend
	co      *cluster.Coordinator // nil for the single daemon
	ctrl    *online.Controller   // nil for the cluster
	shards  []*cluster.Shard
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	gen     *http.Client // the generator: one connection
	fol     *follower
	cells   [][2]int32    // demanded (server, object) cells of the base instance
	first   float64       // savings of the first solve, the base instance's cold solve
	placed  time.Duration // generated inputs -> first placement held by the backend
	parent  *atomic.Int32
}

// startService builds the instance, the backend and its first placement,
// puts server.Server on a loopback port and syncs a routing client.
func startService(r *run, ps passSpec, clustered bool, req int64) (*service, error) {
	tr := ps.tr
	root := tr.start("setup", 0, req)
	defer tr.finish(root)
	in, err := generate(tr, ps.shape, ps.seed, root)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sp := tr.start("distoracle.build", root, req)
	cost, err := distoracle.Build(in.g, distoracle.Options{Mode: ps.shape.Oracle})
	tr.finish(sp)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	s := &service{parent: new(atomic.Int32), served: make(chan struct{})}
	for i, ds := range in.w.PerServer {
		for _, d := range ds {
			s.cells = append(s.cells, [2]int32{int32(i), d.Object})
		}
	}
	cfg := online.Config{Seed: ps.seed}
	if !clustered {
		s.ctrl, err = online.New(cost, in.w, in.caps, cfg)
		if err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
		s.backend = s.ctrl
		if err := s.ctrl.SolveNow(r.ctx); err != nil {
			s.close()
			return nil, fmt.Errorf("first solve: %w", err)
		}
	} else {
		if err := s.startCluster(r.ctx, tr, root, req, cost, in, cfg); err != nil {
			s.close()
			return nil, err
		}
	}
	s.placed = time.Since(t0)
	s.first = s.backend.Current().Schema.Savings()
	if tr != nil {
		layer := "online"
		if clustered {
			layer = "cluster"
		}
		s.backend = &tracedBackend{Backend: s.backend, tr: tr, layer: layer, parent: s.parent}
	}

	s.srv = server.New(s.backend)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + lis.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(lis) // returns http.ErrServerClosed on close
	}()
	s.gen = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	s.fol = startFollower(routing.NewClient(cost), s.base, tr)
	if _, err := s.fol.waitFor(s.backend.Current().Version, visibleDeadline); err != nil {
		s.close()
		return nil, fmt.Errorf("client sync: %w", err)
	}
	return s, nil
}

func (s *service) startCluster(ctx context.Context, tr *tracer, parent int32, req int64, cost replication.CostFn, in inputs, cfg online.Config) error {
	sp := tr.start("replication.problem", parent, req)
	p, err := replication.NewProblem(cost, in.w, in.caps)
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("problem: %w", err)
	}
	var addrs []string
	for i := 0; i < clusterShards; i++ {
		sh := cluster.NewShard(i, cost, cluster.ShardConfig{Codec: cluster.CodecGob, Controller: cfg})
		s.shards = append(s.shards, sh)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		sh.Serve(lis)
		addrs = append(addrs, sh.Addr())
	}
	s.co, err = cluster.NewCoordinator(p, addrs, cluster.CoordinatorConfig{Codec: cluster.CodecGob, Controller: cfg})
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	s.backend = s.co
	if err := s.co.AssignNow(ctx); err != nil {
		return fmt.Errorf("assign: %w", err)
	}
	if err := s.co.SolveNow(ctx); err != nil {
		return fmt.Errorf("first solve: %w", err)
	}
	return nil
}

// close stops the client, the HTTP server and the backend, and waits for
// each.
func (s *service) close() {
	if s.srv != nil {
		s.srv.Drain() // terminal update: the follower stops on its own
	}
	if s.fol != nil {
		s.fol.stop()
	}
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	if s.gen != nil {
		s.gen.CloseIdleConnections()
	}
	if s.co != nil {
		s.co.Close()
	}
	for _, sh := range s.shards {
		sh.Close()
	}
	if s.ctrl != nil {
		s.ctrl.Close()
	}
}

// tracedBackend times the calls server.Server makes into the backend. The
// generator stores its in-flight HTTP span in parent before each request;
// with one request in flight that span is the caller of the backend call.
type tracedBackend struct {
	server.Backend
	tr     *tracer
	layer  string
	parent *atomic.Int32
}

func (b *tracedBackend) ApplyDeltas(ds []online.Delta) (online.Applied, error) {
	sp := b.tr.start(b.layer+".apply", b.parent.Load(), 0)
	defer b.tr.finish(sp)
	return b.Backend.ApplyDeltas(ds)
}

func (b *tracedBackend) SolveNow(ctx context.Context) error {
	sp := b.tr.start(b.layer+".solve", b.parent.Load(), 0)
	defer b.tr.finish(sp)
	return b.Backend.SolveNow(ctx)
}

// follower drives a routing.Client from GET /epochs, as routing.Follow
// does, and additionally records when each version was applied, so the
// generator can time visibility without polling.
type follower struct {
	c      *routing.Client
	src    *routing.HTTPSource
	bytes  *byteCounter
	tr     *tracer
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	ver     uint64
	at      time.Time
	adv     chan struct{} // closed and replaced on every advance
	updates int64
	err     error
}

func startFollower(c *routing.Client, base string, tr *tracer) *follower {
	bc := &byteCounter{next: &http.Transport{DisableCompression: true}}
	f := &follower{
		c:     c,
		src:   &routing.HTTPSource{Base: base, Client: &http.Client{Transport: bc}, Wait: pollWait},
		bytes: bc,
		tr:    tr,
		done:  make(chan struct{}),
		adv:   make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(ctx)
	return f
}

func (f *follower) run(ctx context.Context) {
	defer close(f.done)
	for ctx.Err() == nil {
		ch, cancel, err := f.src.Subscribe(ctx, f.c.Version())
		if err != nil {
			f.mu.Lock()
			f.err = err
			f.mu.Unlock()
			return
		}
		terminal := f.consume(ch)
		cancel()
		if terminal {
			return
		}
	}
}

// consume applies updates until the stream ends (false: resubscribe) or a
// terminal update arrives (true).
func (f *follower) consume(ch <-chan *online.Update) bool {
	for u := range ch {
		if u.Terminal {
			return true
		}
		t0 := time.Now()
		err := f.c.Apply(u)
		t1 := time.Now()
		f.tr.record("routing.apply", 0, int64(u.Version), t0, t1)
		if err != nil {
			return false // stale: resubscribe from the client's version
		}
		f.mu.Lock()
		f.ver = f.c.Version()
		f.at = t1
		f.updates++
		close(f.adv)
		f.adv = make(chan struct{})
		f.mu.Unlock()
	}
	return false
}

// waitFor blocks until the client holds version v and returns when it got
// there.
func (f *follower) waitFor(v uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		f.mu.Lock()
		ver, at, adv, err := f.ver, f.at, f.adv, f.err
		f.mu.Unlock()
		if ver >= v {
			return at, nil
		}
		if err != nil {
			return time.Time{}, err
		}
		select {
		case <-adv:
		case <-f.done:
			return time.Time{}, errors.New("routing client stopped")
		case <-deadline.C:
			return time.Time{}, fmt.Errorf("client at version %d, version %d not visible within %v", ver, v, timeout)
		}
	}
}

func (f *follower) stop() {
	f.cancel()
	<-f.done
}

func (f *follower) counts() (updates, bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.updates, f.bytes.bytes.Load()
}

// post sends one JSON request body and decodes the JSON answer.
func (s *service) post(path string, body []byte, out any) error {
	resp, err := s.gen.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// route asks GET /route and returns the answer's read_from.
func (s *service) route(server, object int32) (int32, error) {
	url := s.base + "/route?server=" + strconv.Itoa(int(server)) + "&object=" + strconv.Itoa(int(object))
	resp, err := s.gen.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /route: %s", resp.Status)
	}
	var ans struct {
		ReadFrom int32 `json:"read_from"`
	}
	if err := json.Unmarshal(data, &ans); err != nil {
		return 0, err
	}
	return ans.ReadFrom, nil
}

// stream is the seeded delta and route-sample generator. Add batches draw
// batchDeltas already-demanded cells and raise them by 9 reads and 1
// write; the next batch lowers the same cells by the same amounts, so every
// pair of batches is net zero and no cell is ever created or emptied.
type stream struct {
	rng   *stats.RNG
	cells [][2]int32
	last  []online.Delta
}

func (st *stream) batch(i int) []online.Delta {
	if i%2 == 1 {
		neg := make([]online.Delta, len(st.last))
		for j, d := range st.last {
			d.Reads, d.Writes = -d.Reads, -d.Writes
			neg[j] = d
		}
		return neg
	}
	st.last = make([]online.Delta, batchDeltas)
	for j := range st.last {
		c := st.cells[st.rng.Intn(len(st.cells))]
		st.last[j] = online.Delta{Kind: online.KindDemand, Server: int(c[0]), Object: c[1], Reads: 9, Writes: 1}
	}
	return st.last
}

func (st *stream) pair() [2]int32 { return st.cells[st.rng.Intn(len(st.cells))] }

// loopStats collects one pass's closed-loop samples.
type loopStats struct {
	deltaVisible, solveVisible, routes []time.Duration
	fanout, region, merge, unaccounted []time.Duration
}

// servicePass runs daemon-churn or cluster-churn: set up (repeatedly),
// run the warm-up cycles, then the closed loop until the window closes on
// a cycle boundary.
func servicePass(r *run, ps passSpec) error {
	clustered := r.def.name == "cluster-churn"
	var s *service
	var setup, placements []time.Duration
	for i := 0; ps.moreSetups(setup); i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = startService(r, ps, clustered, int64(i))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0))
		placements = append(placements, s.placed)
	}
	defer s.close()
	e := s.backend.Current()
	fmt.Fprintf(r.out, "  oracle=%s M=%d N=%d cells=%d setups=%d\n",
		distoracle.Kind(e.Problem.Cost), e.Problem.M, e.Problem.N, e.Problem.Cells(), len(setup))

	var ph0 cluster.PhaseStats
	if clustered {
		ph0 = s.co.Phases()
	}
	st := &stream{rng: stats.NewRNG(stats.Mix64(ps.seed, 29)), cells: s.cells}
	var warm loopStats
	for i := 0; i < warmupCycles*cycleBatches; i++ {
		if err := s.step(r, nil, st, i, nil, &warm); err != nil {
			return err
		}
	}
	u0, b0 := s.fol.counts()
	_, res0, _ := s.fol.c.Stats()
	var m0 online.Metrics
	if s.ctrl != nil {
		m0 = s.ctrl.Metrics()
	}
	var phases *cluster.Coordinator
	if ps.tr != nil && clustered {
		phases = s.co
	}
	tr := ps.tr
	if tr != nil {
		// The set-up's layer calls, before the figures leave set-up and
		// warm-up out.
		r.put("workload.gen_s", median(secs(tr.durations("workload.gen"))))
		r.put("topology.gen_s", median(secs(tr.durations("topology.gen"))))
		r.put("distoracle.build_s", median(secs(tr.durations("distoracle.build"))))
		if clustered {
			r.put("replication.problem_s", median(secs(tr.durations("replication.problem"))))
		}
		tr.skip()
	}
	var ls loopStats
	start := time.Now()
	for i := 0; i%cycleBatches != 0 || time.Since(start) < ps.window; i++ {
		if err := s.step(r, ps.tr, st, i, phases, &ls); err != nil {
			return err
		}
	}
	fmt.Fprintf(r.out, "  batches=%d solves=%d routes=%d window=%.2fs\n",
		len(ls.deltaVisible), len(ls.solveVisible), len(ls.routes), time.Since(start).Seconds())

	// The stream ends on a cold solve of the base instance: its placement
	// must be the setup's first placement, and it must hold the model's
	// invariants.
	final := s.backend.Current()
	checkSchema(r, "final epoch", final.Schema)
	if got := final.Schema.Savings(); got != s.first {
		r.fail("final savings %.10f differ from the first solve's %.10f", got, s.first)
	}
	if v := s.fol.c.Version(); v != final.Version {
		r.fail("routing client at version %d, final epoch %d", v, final.Version)
	}
	updates, resyncs, stales := s.fol.c.Stats()
	fmt.Fprintf(r.out, "  client updates=%d resyncs=%d stales=%d\n", updates, resyncs, stales)
	if clustered {
		if ph := s.co.Phases(); ph.Assigns != ph0.Assigns {
			r.fail("cluster re-partitioned %d times during the stream", ph.Assigns-ph0.Assigns)
		}
		if fe := s.co.Status(r.ctx).ForwardErrors; fe != 0 {
			r.fail("cluster reported %d forward errors", fe)
		}
	}

	r.putPct("setup_s", secs(setup), 0.5)
	r.putPct("placement_s", secs(placements), 0.5)
	r.put("savings_pct", final.Schema.Savings())
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.put("peak_rss_mib", rss)
	// An update is a delta batch until the client holds its version, a
	// solve a POST /solve until the client holds its placement.
	r.putPct("update_ms.p50", ms(ls.deltaVisible), 0.5)
	printPct(r.out, "update_ms.p90", "ms", ms(ls.deltaVisible), 0.9)
	r.putPct("solve_ms.p50", ms(ls.solveVisible), 0.5)
	printPct(r.out, "solve_ms.p90", "ms", ms(ls.solveVisible), 0.9)
	printPct(r.out, "route_us.p50", "us", us(ls.routes), 0.5)
	if tr == nil {
		return nil
	}

	layer := "online"
	if clustered {
		layer = "cluster"
	}
	r.putPct(layer+".apply_ms.p50", ms(tr.durations(layer+".apply")), 0.5)
	r.putPct(layer+".solve_ms.p50", ms(tr.durations(layer+".solve")), 0.5)
	r.putPct("server.deltas_ms.p50", ms(tr.selfTimes("server.deltas")), 0.5)
	r.putPct("server.solve_ms.p50", ms(tr.selfTimes("server.solve")), 0.5)
	r.putPct("routing.lag_ms.p50", ms(tr.durations("routing.lag")), 0.5)
	r.putPct("routing.apply_us.p50", us(tr.durations("routing.apply")), 0.5)
	u1, b1 := s.fol.counts()
	_, res1, _ := s.fol.c.Stats()
	if u1 > u0 {
		r.put("routing.update_bytes", float64(b1-b0)/float64(u1-u0))
		r.put("routing.resync_ratio", float64(res1-res0)/float64(u1-u0))
	}
	if s.ctrl != nil {
		m1 := s.ctrl.Metrics()
		r.put("online.deltas_applied", float64(m1.DeltasApplied-m0.DeltasApplied))
		r.put("online.solves_run", float64(m1.SolvesRun-m0.SolvesRun))
		r.put("online.solver_work", float64(m1.SolverWork-m0.SolverWork))
		r.put("online.carried_drops", float64(m1.CarriedDrops-m0.CarriedDrops))

		// The controller's layers below it, timed by separate calls on the
		// final epoch's problem (the base instance): the problem index that
		// every ApplyDeltas rebuilds, and the arena and kernel of SolveNow.
		bp := final.Problem
		var res *agtram.Result
		for i := int64(0); i < 3; i++ {
			sp := tr.start("replication.problem", 0, i)
			_, perr := replication.NewProblem(bp.Cost, bp.Work, bp.Capacity)
			tr.finish(sp)
			sp = tr.start("agtram.solve", 0, i)
			var serr error
			res, serr = agtram.SolveIncremental(r.ctx, bp, agtram.Config{})
			tr.finish(sp)
			if err := errors.Join(perr, serr); err != nil {
				return fmt.Errorf("layer calls: %w", err)
			}
		}
		if got := res.Schema.Savings(); got != s.first {
			r.fail("separate solve of the base instance saved %.10f, the daemon's first solve %.10f", got, s.first)
		}
		r.put("replication.problem_s", median(secs(tr.durations("replication.problem"))))
		kernelLayers(r, tr, bp, res)
	}
	if clustered {
		ph := s.co.Phases()
		if ph.Assigns > 0 {
			r.put("cluster.ship_ms", float64(ph.ShipNs)/float64(ph.Assigns)/1e6)
			r.put("cluster.assign_bytes", float64(ph.AssignBytes)/float64(ph.Assigns))
			r.put("hierarchy.partition_ms", float64(ph.PartitionNs)/float64(ph.Assigns)/1e6)
		}
		r.putPct("cluster.fanout_ms", ms(ls.fanout), 0.5)
		r.putPct("cluster.region_solve_ms", ms(ls.region), 0.5)
		rpc := make([]time.Duration, len(ls.fanout))
		for i := range rpc {
			rpc[i] = ls.fanout[i] - ls.region[i]
		}
		r.putPct("cluster.rpc_ms", ms(rpc), 0.5)
		r.putPct("cluster.merge_ms", ms(ls.merge), 0.5)
	}

	// Accounting along the blocking path of each operation.
	dv, sd, lag := median(ms(ls.deltaVisible)), median(ms(tr.durations("server.deltas"))), median(ms(lagOf(tr, false)))
	fmt.Fprintf(r.out, "accounting update p50=%.3fms: server.deltas=%.3fms (%s.apply %.3fms) + routing.lag=%.3fms (apply %.3fms); unaccounted=%.3fms\n",
		dv, sd, layer, median(ms(tr.durations(layer+".apply"))), lag, median(ms(tr.durations("routing.apply"))), dv-sd-lag)
	sv, ss, slag := median(ms(ls.solveVisible)), median(ms(tr.durations("server.solve"))), median(ms(lagOf(tr, true)))
	fmt.Fprintf(r.out, "accounting solve p50=%.3fms: server.solve=%.3fms (%s.solve %.3fms) + routing.lag=%.3fms; unaccounted=%.3fms\n",
		sv, ss, layer, median(ms(tr.durations(layer+".solve"))), slag, sv-ss-slag)
	if clustered {
		cs := median(ms(tr.durations("cluster.solve")))
		fo, mg := median(ms(ls.fanout)), median(ms(ls.merge))
		fmt.Fprintf(r.out, "accounting cluster.solve p50=%.3fms: fanout=%.3fms (region %.3fms + rpc) + merge=%.3fms; unaccounted p50=%.3fms\n",
			cs, fo, median(ms(ls.region)), mg, median(ms(ls.unaccounted)))
	}
	return nil
}

// lagOf returns the routing.lag spans that follow solve requests (or
// delta requests): step numbers batch i's delta request 2i and its solve
// request 2i+1.
func lagOf(tr *tracer, solve bool) []time.Duration {
	var out []time.Duration
	for _, s := range tr.closed("routing.lag") {
		if (s.Req%2 == 1) == solve {
			out = append(out, s.dur())
		}
	}
	return out
}

// step runs batch i of the stream: POST /deltas, wait until the client is
// at the returned version, check a route sample; every solveEvery-th batch
// the same for POST /solve. A non-nil phases is the coordinator whose phase
// counters the traced run reads around each solve.
func (s *service) step(r *run, tr *tracer, st *stream, i int, phases *cluster.Coordinator, ls *loopStats) error {
	ds := st.batch(i)
	body, err := json.Marshal(ds)
	if err != nil {
		return err
	}
	var applied online.Applied
	visible, err := s.timed(r, tr, "server.deltas", int64(2*i), func() (uint64, error) {
		err := s.post("/deltas", body, &applied)
		return applied.Version, err
	})
	if err != nil {
		return err
	}
	ls.deltaVisible = append(ls.deltaVisible, visible)
	s.checkRoutes(r, st, ls)
	if (i+1)%solveEvery != 0 {
		return nil
	}
	var before cluster.PhaseStats
	if phases != nil {
		before = phases.Phases()
	}
	var solved struct {
		Version uint64 `json:"version"`
	}
	visible, err = s.timed(r, tr, "server.solve", int64(2*i+1), func() (uint64, error) {
		err := s.post("/solve", []byte("{}"), &solved)
		return solved.Version, err
	})
	if err != nil {
		return err
	}
	ls.solveVisible = append(ls.solveVisible, visible)
	if phases != nil {
		after := phases.Phases()
		fan := time.Duration(after.SolveNs - before.SolveNs)
		merge := time.Duration(after.MergeNs - before.MergeNs)
		ls.fanout = append(ls.fanout, fan)
		ls.region = append(ls.region, time.Duration(after.RegionSolveNs))
		ls.merge = append(ls.merge, merge)
		if sp := tr.closed("cluster.solve"); len(sp) > 0 {
			ls.unaccounted = append(ls.unaccounted, sp[len(sp)-1].dur()-fan-merge)
		}
	}
	s.checkRoutes(r, st, ls)
	return nil
}

// timed issues one write request and waits until the routing client holds
// the version it returned. The traced run records the HTTP round trip
// (whose child is the backend call) and the lag after it.
func (s *service) timed(r *run, tr *tracer, name string, req int64, call func() (uint64, error)) (time.Duration, error) {
	r.attempted++
	sp := tr.start(name, 0, req)
	s.parent.Store(sp)
	t0 := time.Now()
	ver, err := call()
	t1 := time.Now()
	tr.finish(sp)
	if err != nil {
		r.fail("%s: %v", name, err)
		return 0, err
	}
	at, err := s.fol.waitFor(ver, visibleDeadline)
	if err != nil {
		r.fail("%s: %v", name, err)
		return 0, err
	}
	// The coordinator publishes its mirror epoch before it forwards the
	// batch to the shards, so the client can hold the version before the
	// response arrives; the operation is visible once both have happened.
	if at.Before(t1) {
		at = t1
	}
	tr.record("routing.lag", 0, req, t1, at)
	return at.Sub(t0), nil
}

// checkRoutes issues the fixed route sample and holds every answer equal
// to the routing client's at the same version (nothing publishes between
// the client catching up and these reads: the loop is the only writer).
func (s *service) checkRoutes(r *run, st *stream, ls *loopStats) {
	for j := 0; j < routesPerVersion; j++ {
		c := st.pair()
		r.attempted++
		t0 := time.Now()
		got, err := s.route(c[0], c[1])
		d := time.Since(t0)
		if err != nil {
			r.fail("route %v: %v", c, err)
			continue
		}
		ls.routes = append(ls.routes, d)
		want, err := s.fol.c.Route(int(c[0]), c[1])
		if err != nil {
			r.fail("client route %v: %v", c, err)
			continue
		}
		if got != want {
			r.fail("route %v: server says %d, client says %d", c, got, want)
		}
	}
}
