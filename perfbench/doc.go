// Command perfbench is the repository's benchmark: one command that runs a
// seeded workload against the program from outside, checks its outputs and
// prints its end-to-end metrics (or, traced, its per-layer metrics) by name
// and unit. BENCHMARK.json at the repository root declares the workloads
// and metrics; every performance claim in this repository is measured with
// it. Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last output line is one JSON object {correct, attempted, failed,
// metrics}; the lines before it are a report (host and instance metadata,
// each percentile with its sample count and the samples beyond it, the
// failure share, the traced accounting). A failed check makes correct
// false and the exit code 1.
//
// # Workloads
//
// Each layer likely to be optimised does most of its work in one workload
// and little or none in another, so a change shows where it should and a
// workload that bypasses it predicts no change.
//
//   - paper-offline: the paper's instance (M=3718 servers, N=25,000 objects,
//     1.5M requests, G(n, p=0.01), capacity 25%, read share 0.9) with the
//     oracle pinned to dense (auto picks the lazy CSR oracle above 1024
//     servers, which does not finish this instance in minutes). Set-up
//     generates the inputs. The first half of the window repeats the
//     placement (oracle build, problem index, solve); time to placement is
//     almost all the dense oracle's all-pairs Dijkstra, so oracle and
//     topology changes show in placement_s. The second half alternates an
//     update (a demand batch, the problem index and a solve on the built
//     oracle: what an offline user re-runs when demand changes) with a
//     cold re-solve of the updated problem, so kernel changes show in
//     update_ms and solve_ms.
//   - mid-offline: M=1100, N=4000, 240k requests, same generator, default
//     oracle selection (auto, hence the lazy CSR oracle with its 256-row
//     LRU). Each placement starts from an empty row cache, and every solve
//     misses the cache tens of thousands of times although the dense
//     matrix would be a few MB, so placement, update and solve are all
//     lazy row materialization: oracle-selection and row-cache changes
//     show here and not on paper-offline. A solve takes about as long as
//     half the window, so each half holds one or two operations.
//   - daemon-churn: one online.Controller behind server.Server on loopback
//     HTTP (M=1000, N=3000, 180k requests, p=0.05, capacity 20%), drift
//     auto-solve off, one routing.Client following GET /epochs. A delta
//     batch (ApplyDeltas: clone, materialize, carry over, publish) costs
//     about as much as a cold solve, and routes are served between them,
//     so a gain for one use that costs another shows.
//   - cluster-churn: the same instance and the identical stream against a
//     cluster.Coordinator with two shards over loopback gob RPC, behind the
//     same server. RPC, merge and partition changes show here and not on
//     daemon-churn.
//
// # The closed loop
//
// The service workloads run a closed loop: one generator goroutine on one
// HTTP connection, sending the next request only when the previous one is
// visible. The daemon's write path is serialized by design (one mutex, one
// epoch sequence), so a single caller that waits for its reply is the
// deployment the paths serve, and a closed loop cannot build a backlog
// that would make the latencies depend on run length. Each batch is
// batchDeltas demand deltas over cells the instance already demands (9
// reads and 1 write each); the next batch takes them back, so the instance
// is stationary and the catalogue never grows. After each batch the
// generator waits until the client holds the returned version, then reads
// and checks a fixed sample of GET /route; every third batch it also
// POSTs /solve. Because deltas touch only demanded cells, the cluster
// forwards every batch and never re-partitions: one percentile never mixes
// the two paths. Two cycles of warm-up run before the window and are not
// timed; the window ends on a cycle boundary, whose last operation is a
// cold solve of the base instance. The offline updates draw their batches
// from the same stream.
//
// The benchmark host has two cores, and the cluster's shards, coordinator,
// server and client share them. cluster-churn therefore measures the
// cluster's overhead against the single daemon (RPC, merge, forwarding),
// not a parallel speed-up: two cores cannot show fan-out overlap.
//
// # End-to-end metrics
//
// Every workload emits every end-to-end metric, and each measures
// something on every workload. An update is a change of demand until its
// user holds the result; a solve is a cold solve until its user holds the
// placement. Percentiles are nearest-rank, and the median of an even count
// is the mean of the two middle samples; the report prints each with its
// sample count and the samples beyond it.
//
//	setup_s        median of the set-ups (at least three and at least
//	               setupBudget of them): input generation; the service
//	               workloads add the oracle, the backend and its first
//	               solve, the server and the client's sync
//	placement_s    generated inputs -> first placement. Offline: median of
//	               the placements (distoracle.Build + replication.NewProblem
//	               + solve). Service: median over the set-ups of
//	               distoracle.Build + backend construction + first solve
//	               (the cluster: problem, shards, assignment, fan-out, merge)
//	savings_pct    OTC savings of the base instance's placement (per seed)
//	peak_rss_mib   VmHWM of the process
//	update_ms.p50  offline: a demand batch, replication.NewProblem and a
//	               solve on the built oracle; service: start of POST /deltas
//	               -> client at the returned version (and response received)
//	solve_ms.p50   offline: agtram.SolveIncremental of the updated problem;
//	               service: POST /solve -> client at the returned version
//
// The p90s of update and solve, and GET /route's round trip on the service
// workloads, are printed in the report but not emitted. The offline p90s
// have too few samples beyond them, and the daemon's tail moves by half
// with an episode of host noise (on the two-core host the benchmark was
// sized on, speed drifts by 10-30% from minute to minute): its p90 spread
// over ten seeded runs reached 0.27-0.33 of the median, beyond any bound
// the benchmark may set. The route round trip is mostly loopback HTTP.
//
// savings_pct is exact per seed but differs between instances: at the
// service shape a few seeds in thirty save 12-25% where most save 46-58%,
// because one large object holds most of the demand. Over thirty seeds its
// spread (interquartile range over median) is 0.10 at the service shape
// and 0.04 at mid-offline's.
//
// # Per-layer metrics
//
// The traced run (--trace 1) is separate: it runs an untraced pass and a
// traced pass, each on half the window, prints the traced-minus-untraced
// difference of every end-to-end metric, and reports the per-layer figures
// of the traced pass only. Spans (name, start, end, parent, request id) are
// recorded around every call the benchmark makes into a layer — never
// inside the program — kept in memory and written to the --spans
// directory at the end. Self time is a span's duration minus its
// children's. Every workload emits every per-layer metric; one whose layer
// the workload makes no call into reads 0 and is marked so in the report
// (the row cache exists only on the lazy oracle, the online metrics only
// on the daemon, the cluster metrics only on the cluster, the serving
// metrics only on the service workloads). Each layer metric, the workloads
// that measure it, and the end-to-end metric it should move:
//
//	workload.gen_s, topology.gen_s       all       -> setup_s
//	distoracle.build_s                   all       -> placement_s
//	distoracle.row_misses, .row_hits,
//	  .row_evictions, .row_hit_ratio     mid       -> placement, update, solve
//	replication.problem_s                all       -> update_ms (offline, and
//	                                                  the daemon's ApplyDeltas
//	                                                  rebuilds it per batch)
//	candidates.arena_ms (a separate
//	  BuildArena on the built problem),
//	agtram.solve_ms (minus the arena),   offline,  -> update_ms, solve_ms
//	  agtram.rounds, agtram.valuations   daemon
//	online.apply_ms.p50, .solve_ms.p50,
//	  .deltas_applied, .solves_run,
//	  .solver_work, .carried_drops       daemon    -> update_ms, solve_ms
//	server.deltas_ms.p50, .solve_ms.p50
//	  (HTTP round trip minus backend)    service   -> update_ms, solve_ms
//	routing.lag_ms.p50 (response -> client
//	  at version), .apply_us.p50,
//	  .update_bytes, .resync_ratio       service   -> update_ms, solve_ms
//	cluster.apply_ms.p50, .solve_ms.p50  cluster   -> update_ms, solve_ms
//	cluster.fanout_ms, .region_solve_ms,
//	  .rpc_ms, .merge_ms (per solve)     cluster   -> solve_ms
//	cluster.ship_ms, .assign_bytes,
//	  hierarchy.partition_ms             cluster   -> setup_s, placement_s
//
// On the daemon the problem index and the kernel are timed by separate
// calls on the final epoch's problem (the base instance) after the window;
// the separate solve must save exactly what the daemon's first solve did.
// The backend spans come from a server.Backend wrapper around the
// controller or coordinator; the cluster phases from Coordinator.Phases
// read around each solve. The traced report prints, per workload, the
// unaccounted remainder along the blocking path: a placement or update
// minus the layer calls under it (oracle build, problem, solve); a service
// update or solve minus server.deltas (server.solve) and routing.lag;
// cluster.solve minus fan-out and merge. The work inside ApplyDeltas
// (materialize, carry-over, publish) is not visible from outside; timing
// it needs spans inside the program.
//
// # Checks and failures
//
// Every offline placement must pass Schema.ValidateInvariants and
// RecomputeCost == TotalCost; every placement of the base instance (each
// repeated placement, and each update that takes a batch back) must save
// exactly as much as the first, and each re-solve exactly as much as the
// update before it. In the service workloads every answer of the route
// sample must equal routing.Client.Route at the same version, the final
// epoch must pass the same invariant checks and reproduce the first
// solve's savings, and the cluster must neither re-partition nor report
// forward errors. A failed operation is a non-2xx response, a solver or
// RPC error, a version not visible within visibleDeadline, or a route
// mismatch; attempted counts every request, placement, update and solve.
package main
