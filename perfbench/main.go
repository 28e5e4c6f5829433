package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/distoracle"
)

// shape is one instance size: the paper's Section 5 generator parameters.
type shape struct {
	Servers  int     `json:"servers"`
	Objects  int     `json:"objects"`
	Requests int     `json:"requests"`
	EdgeP    float64 `json:"edge_p"`
	CapPct   float64 `json:"capacity_pct"`
	RW       float64 `json:"rw_ratio"`
	// Oracle is the distance-oracle mode passed to distoracle.Build;
	// ModeAuto is the library default.
	Oracle distoracle.Mode `json:"-"`
}

// workloadDef is one workload: its instance at full and at self-test size,
// the pass that runs it, and the per-layer metrics it measures. Every
// workload emits every end-to-end metric (--trace 0) and every declared
// per-layer metric (--trace 1); a layer the workload makes no call into
// reads 0 there.
type workloadDef struct {
	name     string
	full     shape
	tiny     shape
	pass     func(r *run, p passSpec) error
	perLayer []string // measured with --trace 1
}

// endToEnd are the metrics every workload emits with --trace 0. Each
// measures something on every workload (see doc.go for what an update and
// a solve are on each).
var endToEnd = []string{"setup_s", "placement_s", "savings_pct", "peak_rss_mib", "update_ms.p50", "solve_ms.p50"}

var (
	paperShape   = shape{Servers: 3718, Objects: 25000, Requests: 1500000, EdgeP: 0.01, CapPct: 25, RW: 0.9, Oracle: distoracle.ModeDense}
	midShape     = shape{Servers: 1100, Objects: 4000, Requests: 240000, EdgeP: 0.01, CapPct: 25, RW: 0.9, Oracle: distoracle.ModeAuto}
	serviceShape = shape{Servers: 1000, Objects: 3000, Requests: 180000, EdgeP: 0.05, CapPct: 20, RW: 0.9, Oracle: distoracle.ModeAuto}

	tinyDense = shape{Servers: 60, Objects: 300, Requests: 20000, EdgeP: 0.1, CapPct: 25, RW: 0.9, Oracle: distoracle.ModeDense}
	// The tiny mid instance forces the lazy oracle that auto picks at full
	// size, so the self-test runs the same code path.
	tinyLazy    = shape{Servers: 60, Objects: 300, Requests: 20000, EdgeP: 0.1, CapPct: 25, RW: 0.9, Oracle: distoracle.ModeCSR}
	tinyService = shape{Servers: 60, Objects: 300, Requests: 20000, EdgeP: 0.1, CapPct: 20, RW: 0.9, Oracle: distoracle.ModeAuto}
)

var offlineLayers = []string{
	"workload.gen_s", "topology.gen_s", "distoracle.build_s", "replication.problem_s",
	"candidates.arena_ms", "agtram.solve_ms", "agtram.rounds", "agtram.valuations",
}

var routingLayers = []string{
	"server.deltas_ms.p50", "server.solve_ms.p50",
	"routing.lag_ms.p50", "routing.apply_us.p50", "routing.update_bytes", "routing.resync_ratio",
}

var workloads = []workloadDef{
	{name: "paper-offline", full: paperShape, tiny: tinyDense, pass: offlinePass, perLayer: offlineLayers},
	{
		name: "mid-offline", full: midShape, tiny: tinyLazy, pass: offlinePass,
		perLayer: append(append([]string(nil), offlineLayers...),
			"distoracle.row_misses", "distoracle.row_hits", "distoracle.row_evictions", "distoracle.row_hit_ratio"),
	},
	{
		name: "daemon-churn", full: serviceShape, tiny: tinyService, pass: servicePass,
		perLayer: append([]string{
			"workload.gen_s", "topology.gen_s", "distoracle.build_s", "replication.problem_s",
			"candidates.arena_ms", "agtram.solve_ms", "agtram.rounds", "agtram.valuations",
			"online.apply_ms.p50", "online.solve_ms.p50",
			"online.deltas_applied", "online.solves_run", "online.solver_work", "online.carried_drops",
		}, routingLayers...),
	},
	{
		name: "cluster-churn", full: serviceShape, tiny: tinyService, pass: servicePass,
		perLayer: append(append([]string{
			"workload.gen_s", "topology.gen_s", "distoracle.build_s", "replication.problem_s",
		}, routingLayers...),
			"cluster.apply_ms.p50", "cluster.solve_ms.p50",
			"cluster.fanout_ms", "cluster.region_solve_ms", "cluster.rpc_ms", "cluster.merge_ms",
			"cluster.ship_ms", "cluster.assign_bytes", "hierarchy.partition_ms"),
	},
}

// perLayer is every declared per-layer metric, in first-measured order.
func perLayer() []string {
	var out []string
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, name := range w.perLayer {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return out
}

// units gives every metric's unit; BENCHMARK.json declares the same pairs
// (the self-test holds them equal).
var units = map[string]string{
	"setup_s": "s", "placement_s": "s", "savings_pct": "%", "peak_rss_mib": "MiB",
	"update_ms.p50": "ms", "solve_ms.p50": "ms",

	"workload.gen_s": "s", "topology.gen_s": "s", "distoracle.build_s": "s",
	"distoracle.row_misses": "count", "distoracle.row_hits": "count", "distoracle.row_evictions": "count",
	"distoracle.row_hit_ratio": "ratio", "replication.problem_s": "s", "candidates.arena_ms": "ms",
	"agtram.solve_ms": "ms", "agtram.rounds": "count", "agtram.valuations": "count",
	"online.apply_ms.p50": "ms", "online.solve_ms.p50": "ms", "online.deltas_applied": "count",
	"online.solves_run": "count", "online.solver_work": "count", "online.carried_drops": "count",
	"server.deltas_ms.p50": "ms", "server.solve_ms.p50": "ms", "routing.lag_ms.p50": "ms",
	"routing.apply_us.p50": "us", "routing.update_bytes": "bytes", "routing.resync_ratio": "ratio",
	"cluster.apply_ms.p50": "ms", "cluster.solve_ms.p50": "ms", "cluster.fanout_ms": "ms",
	"cluster.region_solve_ms": "ms", "cluster.rpc_ms": "ms", "cluster.merge_ms": "ms",
	"cluster.ship_ms": "ms", "cluster.assign_bytes": "bytes", "hierarchy.partition_ms": "ms",
}

// A measured pass sets up at least setupRepeats times and until set-up has
// taken setupBudget; setup_s is the median, which keeps one slow set-up
// from moving it, and cheap set-ups get enough repeats to be steady.
const (
	setupRepeats = 3
	setupBudget  = 3 * time.Second
)

// passSpec is one pass over a workload: untraced passes give the
// end-to-end metrics, the traced pass the per-layer ones.
type passSpec struct {
	shape  shape
	seed   int64
	window time.Duration
	setups int
	tr     *tracer // nil on untraced passes
}

// moreSetups reports whether the pass should set up again after the
// set-ups timed so far.
func (p passSpec) moreSetups(done []time.Duration) bool {
	if len(done) < p.setups {
		return true
	}
	if p.tr != nil {
		return false
	}
	var total time.Duration
	for _, d := range done {
		total += d
	}
	return total < setupBudget
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's accounting across its passes.
type run struct {
	ctx       context.Context
	def       workloadDef
	out       io.Writer
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric // filled by the pass that is being reported
}

// fail counts one failed operation or check and keeps its reason.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// put sets metric name; names outside the workload's table are a bug.
func (r *run) put(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: u}
}

// putPct sets a percentile metric from samples and prints its sample count
// and how many samples lie beyond it. With no samples the metric is 0: the
// workload made no call into the layer.
func (r *run) putPct(name string, xs []float64, q float64) {
	v := printPct(r.out, name, units[name], xs, q)
	if len(xs) == 0 {
		v = 0
	}
	r.put(name, v)
}

// printPct prints a percentile of xs with its sample count and the samples
// beyond it, and returns it. Percentiles that are printed but not emitted
// (the p90s and the route round trip) go through here alone.
func printPct(out io.Writer, name, unit string, xs []float64, q float64) float64 {
	v, n, beyond := percentile(xs, q)
	fmt.Fprintf(out, "  %-26s %12.4f %-5s n=%d beyond=%d\n", name, v, unit, n, beyond)
	if q > 0.5 && n > 0 && beyond < 10 {
		fmt.Fprintf(out, "  warning: %s has %d samples beyond it (<10); the window is too short for this host\n", name, beyond)
	}
	return v
}

// percentile is the nearest-rank q-quantile of xs, with the sample count
// and the number of samples above the chosen rank. The median of an even
// count is the mean of the two middle samples, so that a run whose window
// held one more operation is not pulled to its faster half.
func percentile(xs []float64, q float64) (v float64, n, beyond int) {
	n = len(xs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q == 0.5 && n%2 == 0 {
		return (s[rank-1] + s[rank]) / 2, n, n - rank
	}
	return s[rank-1], n, n - rank
}

func median(xs []float64) float64 { v, _, _ := percentile(xs, 0.5); return v }

func ms(ds []time.Duration) []float64   { return scaled(ds, float64(time.Millisecond)) }
func secs(ds []time.Duration) []float64 { return scaled(ds, float64(time.Second)) }
func us(ds []time.Duration) []float64   { return scaled(ds, float64(time.Microsecond)) }

func scaled(ds []time.Duration, unit float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / unit
	}
	return out
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// options is one invocation's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // directory for the traced run's span file; "" keeps none
	tiny     bool
}

// execute runs one invocation and returns its result. The report lines go
// to out; the caller prints the result as the last line.
func execute(ctx context.Context, o options, out io.Writer) (result, error) {
	def, ok := lookup(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	sh := def.full
	if o.tiny {
		sh = def.tiny
	}
	window := time.Duration(o.seconds * float64(time.Second))
	r := &run{ctx: ctx, def: def, out: out}
	meta := map[string]any{
		"workload": def.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"shape": sh, "oracle_mode": sh.Oracle.String(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(),
	}
	if strings.HasSuffix(def.name, "-churn") {
		meta["generator"] = "closed loop, 1 goroutine, 1 connection"
		meta["batch_deltas"] = batchDeltas
		if def.name == "cluster-churn" {
			meta["shards"] = clusterShards
		}
	}
	metaLine, err := json.Marshal(meta)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "meta %s\n", metaLine)

	spec := passSpec{shape: sh, seed: o.seed, window: window, setups: setupRepeats}
	if !o.trace {
		fmt.Fprintln(out, "pass untraced")
		r.metrics = map[string]metric{}
		err = def.pass(r, spec)
	} else {
		// Untraced then traced, each on half the window: the difference is
		// the tracing overhead, printed per end-to-end metric.
		spec.window = window / 2
		fmt.Fprintln(out, "pass untraced (overhead baseline)")
		r.metrics = map[string]metric{}
		err = def.pass(r, spec)
		base := r.metrics
		if err == nil {
			runtime.GC()
			spec.setups = 1
			spec.tr = newTracer()
			fmt.Fprintln(out, "pass traced")
			r.metrics = map[string]metric{}
			err = def.pass(r, spec)
			printOverhead(out, endToEnd, base, r.metrics)
			if o.spans != "" {
				file := fmt.Sprintf("%s-seed%d.json", def.name, o.seed)
				if path, werr := spec.tr.write(o.spans, file); werr != nil {
					fmt.Fprintf(out, "spans not written: %v\n", werr)
				} else {
					fmt.Fprintf(out, "spans %s\n", path)
				}
			}
		}
	}
	got := r.metrics
	if err != nil {
		r.fail("%s: %v", def.name, err)
	}

	want, measured := endToEnd, endToEnd
	if o.trace {
		want, measured = perLayer(), def.perLayer
	}
	res := result{Metrics: map[string]metric{}}
	for _, name := range measured {
		m, ok := got[name]
		if !ok {
			r.fail("metric %s was not measured", name)
			continue
		}
		res.Metrics[name] = m
	}
	if o.trace {
		fmt.Fprintln(out, "per-layer:")
		for _, name := range want {
			m, ok := res.Metrics[name]
			note := ""
			if !ok {
				m = metric{Value: 0, Unit: units[name]}
				res.Metrics[name] = m
				note = "  (no call into this layer on this workload)"
			}
			fmt.Fprintf(out, "  %-26s %14.4f %s%s\n", name, m.Value, m.Unit, note)
		}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	share := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(out, "operations attempted=%d failed=%d failed_share=%.6f correct=%v\n",
		res.Attempted, res.Failed, share, res.Correct)
	for _, p := range r.problems {
		fmt.Fprintf(out, "  problem: %s\n", p)
	}
	return res, nil
}

// printOverhead prints traced-minus-untraced for every end-to-end metric
// both passes measured.
func printOverhead(out io.Writer, names []string, base, traced map[string]metric) {
	fmt.Fprintln(out, "tracing overhead (traced - untraced, same half window):")
	for _, name := range names {
		b, ok1 := base[name]
		t, ok2 := traced[name]
		if !ok1 || !ok2 {
			continue
		}
		fmt.Fprintf(out, "  %-26s untraced=%.4f traced=%.4f overhead=%+.4f %s\n",
			name, b.Value, t.Value, t.Value-b.Value, b.Unit)
	}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: paper-offline, mid-offline, daemon-churn or cluster-churn")
	flag.Int64Var(&o.seed, "seed", 1, "instance and stream seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs an untraced and a traced pass and prints the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "directory the traced run writes its spans to (none when empty)")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := execute(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
