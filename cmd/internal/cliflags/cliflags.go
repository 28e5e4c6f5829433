// Package cliflags registers the flag vocabulary shared by cmd/agtram and
// cmd/agtramd — the synthetic-instance shape and the AGT-RAM engine/fault
// knobs — so both binaries accept identical spellings and defaults, and a
// fault schedule rehearsed offline with agtram carries verbatim onto the
// daemon.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
)

// Instance collects the synthetic-instance flags.
type Instance struct {
	M, N, Requests int
	RW             float64
	Capacity       float64
	Topology       string
	EdgeP          float64
	Oracle         string
	Landmarks      int
	RowCache       int
	Seed           int64
}

// AddInstance registers the instance flags on fs and returns the struct the
// parsed values land in.
func AddInstance(fs *flag.FlagSet) *Instance {
	c := &Instance{}
	fs.IntVar(&c.M, "M", 128, "number of servers")
	fs.IntVar(&c.N, "N", 800, "number of objects")
	fs.IntVar(&c.Requests, "requests", 0, "total request volume (default 60 per object)")
	fs.Float64Var(&c.RW, "rw", 0.9, "read share of the request volume, in (0,1]")
	fs.Float64Var(&c.Capacity, "capacity", 25, "server capacity parameter C%")
	fs.StringVar(&c.Topology, "topology", "random", "topology: random|waxman|powerlaw|transitstub|tree|grid")
	fs.Float64Var(&c.EdgeP, "p", 0.4, "edge probability for the random topology")
	fs.StringVar(&c.Oracle, "oracle", "auto", "distance oracle: auto|dense|csr|landmark|tree (landmark is approximate)")
	fs.IntVar(&c.Landmarks, "landmarks", 0, "landmark count K for -oracle landmark (0 = default; K = M is exact)")
	fs.IntVar(&c.RowCache, "row-cache", 0, "cached distance rows for -oracle csr (0 = default)")
	fs.Int64Var(&c.Seed, "seed", 1, "experiment seed")
	return c
}

// Config materializes the parsed flags, applying the 60-per-object request
// default.
func (c *Instance) Config() repro.InstanceConfig {
	req := c.Requests
	if req == 0 {
		req = c.N * 60
	}
	return repro.InstanceConfig{
		Servers:         c.M,
		Objects:         c.N,
		Requests:        req,
		RWRatio:         c.RW,
		CapacityPercent: c.Capacity,
		Topology:        repro.TopologyKind(c.Topology),
		EdgeP:           c.EdgeP,
		Oracle:          c.Oracle,
		Landmarks:       c.Landmarks,
		RowCacheRows:    c.RowCache,
		Seed:            c.Seed,
	}
}

// Profile collects the pprof output flags.
type Profile struct {
	CPU string
	Mem string
}

// AddProfile registers -cpuprofile and -memprofile on fs.
func AddProfile(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins CPU profiling when -cpuprofile was given and returns the
// function that finishes both profiles; call it (usually deferred) on the
// way out. With neither flag set both Start and the returned func are
// no-ops.
func (p *Profile) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// Engine collects the AGT-RAM engine-selection and fault-injection flags.
type Engine struct {
	Engine        string
	Workers       int
	RoundTimeout  time.Duration
	GlauberSweeps int
	FaultDrop     float64
	FaultDelay    time.Duration
	FaultCrash    string
	FaultDial     string
	FaultSeed     int64
}

// AddEngine registers the engine flags on fs.
func AddEngine(fs *flag.FlagSet) *Engine {
	e := &Engine{}
	fs.StringVar(&e.Engine, "engine", "incremental", "AGT-RAM engine: incremental|sync|network|tcp")
	fs.IntVar(&e.Workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	fs.DurationVar(&e.RoundTimeout, "round-timeout", 0, "wire engines: per-agent bid/award deadline; agents that miss it are evicted (0 = none)")
	fs.IntVar(&e.GlauberSweeps, "glauber-sweeps", 0, "glauber method: annealing-sweep budget (0 = adaptive default scaling with M*N)")
	fs.Float64Var(&e.FaultDrop, "fault-drop", 0, "wire engines: per-write probability that an agent's link severs, in [0,1]")
	fs.DurationVar(&e.FaultDelay, "fault-delay", 0, "wire engines: delay injected before every agent write")
	fs.StringVar(&e.FaultCrash, "fault-crash", "", "wire engines: comma-separated agent:round crash schedule (e.g. 3:2,7:1)")
	fs.StringVar(&e.FaultDial, "fault-fail-dial", "", "wire engines: comma-separated agent ids whose dial always fails")
	fs.Int64Var(&e.FaultSeed, "fault-seed", 1, "seed for the injected fault schedule")
	return e
}

// Faults assembles a FaultConfig from the fault flags, nil when none inject
// anything.
func (e *Engine) Faults() (*repro.FaultConfig, error) {
	if e.FaultDrop < 0 || e.FaultDrop > 1 {
		return nil, fmt.Errorf("-fault-drop %v outside [0,1]", e.FaultDrop)
	}
	cfg := &repro.FaultConfig{Seed: e.FaultSeed, DropAll: e.FaultDrop, DelayAll: e.FaultDelay}
	if e.FaultCrash != "" {
		cfg.CrashAtRound = map[int]int{}
		for _, part := range strings.Split(e.FaultCrash, ",") {
			var agent, round int
			if _, err := fmt.Sscanf(part, "%d:%d", &agent, &round); err != nil || round < 1 {
				return nil, fmt.Errorf("bad -fault-crash entry %q (want agent:round with round >= 1)", part)
			}
			cfg.CrashAtRound[agent] = round
		}
	}
	if e.FaultDial != "" {
		cfg.FailDial = map[int]bool{}
		for _, part := range strings.Split(e.FaultDial, ",") {
			var agent int
			if _, err := fmt.Sscanf(part, "%d", &agent); err != nil {
				return nil, fmt.Errorf("bad -fault-fail-dial entry %q (want an agent id)", part)
			}
			cfg.FailDial[agent] = true
		}
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	return cfg, nil
}

// Validate checks the engine name and that faults/deadlines target a wire
// engine. It returns the parsed fault config so callers validate and read
// in one call.
func (e *Engine) Validate() (*repro.FaultConfig, error) {
	switch e.Engine {
	case "incremental", "sync", "network", "tcp":
	default:
		return nil, fmt.Errorf("unknown -engine %q (want incremental|sync|network|tcp)", e.Engine)
	}
	faults, err := e.Faults()
	if err != nil {
		return nil, err
	}
	if (faults != nil || e.RoundTimeout > 0) && e.Engine != "network" && e.Engine != "tcp" {
		return nil, fmt.Errorf("-fault-* and -round-timeout apply to the wire engines only (-engine network|tcp)")
	}
	return faults, nil
}
