// Command cgrasim maps, assembles and simulates a benchmark kernel on a
// CGRA configuration, verifies the result against the golden reference
// and the CDFG interpreter, and reports latency and energy, optionally
// next to the or1k CPU baseline.
//
// With -seeds N > 1 the mapping step runs a parallel seed portfolio and
// simulates the deterministic winner (fewest context words, ties broken
// by estimated energy, then the lowest seed).
//
// Usage:
//
//	cgrasim -kernel FFT -config HET1 -flow cab [-cpu] [-seeds 8] [-parallel 4] [-batch 64]
//
// With -batch B > 1 the winner is additionally executed through the
// batched struct-of-arrays engine with B identical input lanes; every
// lane is cross-checked against the verified run and the per-input
// throughput is reported.
//
// -serve ADDR exposes live telemetry (/metrics, /healthz, /readyz,
// /events, /debug/pprof) while the run executes; the bound address is
// announced on stderr and -linger keeps the server up after the run
// for late scrapers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// cliOptions collects the flag values so tests can drive run directly.
type cliOptions struct {
	kernel   string
	config   string
	flow     string
	backend  string
	withCPU  bool
	verify   bool
	seed     int64
	seeds    int
	parallel int
	// batch > 1 re-runs the kernel through the batched engine with that
	// many identical input lanes after the verified run, cross-checks every
	// lane against it, and reports per-input throughput.
	batch    int
	cachedir string
	// rec threads the -metrics/-events recorder into the mapper and the
	// simulator; nil (the zero value the tests use) disables it.
	rec *obs.Recorder
}

func main() {
	var o cliOptions
	flag.StringVar(&o.kernel, "kernel", "FIR", "kernel name: "+strings.Join(kernels.Names(), ", "))
	flag.StringVar(&o.config, "config", "HOM64", "CGRA configuration: HOM64, HOM32, HET1, HET2")
	flag.StringVar(&o.flow, "flow", "cab", "mapping flow: basic, acmap, ecmap, cab")
	flag.StringVar(&o.backend, "backend", "heuristic",
		"mapping backend: "+strings.Join(core.BackendNames(), ", ")+", or race (all backends compete, best mapping wins)")
	flag.BoolVar(&o.withCPU, "cpu", false, "also run the or1k CPU baseline")
	flag.BoolVar(&o.verify, "verify", false, "statically verify mapping and bitstream before simulating")
	flag.Int64Var(&o.seed, "seed", 1, "stochastic pruning seed (first seed of a portfolio)")
	flag.IntVar(&o.seeds, "seeds", 1, "portfolio width: seeds mapped concurrently, best mapping wins")
	flag.IntVar(&o.parallel, "parallel", 0, "portfolio worker pool size (0 = one per CPU)")
	flag.IntVar(&o.batch, "batch", 1, "also run N identical input lanes through the batched engine and report per-input throughput")
	flag.StringVar(&o.cachedir, "cachedir", "", "reuse compiled mappings through the mapping cache stored in this directory (entries are re-verified before use)")
	metrics := flag.String("metrics", "", "write instrumentation counters as JSONL to this file")
	events := flag.String("events", "", "write a Chrome trace_event timeline to this file")
	serve := flag.String("serve", "", "serve live telemetry (/metrics, /healthz, /events, /debug/pprof) on this address for the duration of the run (host:port; :0 picks a port, announced on stderr)")
	linger := flag.Duration("linger", 0, "with -serve, keep the telemetry server up this long after the run so scrapers catch the final state")
	flag.Parse()

	fr := obs.FileOutputs(*metrics, *events)
	var tsrv *telemetry.Server
	if *serve != "" {
		var serr error
		// The closure probes the final fr: ServeArtifacts reassigns it to
		// the recorder that feeds both the files and the live ring.
		fr, tsrv, serr = telemetry.ServeArtifacts(*serve, *metrics, *events, telemetry.Check{
			Name: "recorder",
			Probe: func() error {
				if !fr.Recorder.Enabled() {
					return errors.New("recorder disabled")
				}
				return nil
			},
		})
		if serr != nil {
			fmt.Fprintln(os.Stderr, "cgrasim:", serr)
			os.Exit(1)
		}
		defer tsrv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s\n", tsrv.Addr())
		tsrv.SetReady(true)
	}
	o.rec = fr.Recorder
	err := run(os.Stdout, o)
	if ferr := fr.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrasim:", err)
		os.Exit(1)
	}
	if tsrv != nil && *linger > 0 {
		// Hold the endpoints open after a clean run so an external scraper
		// polling the stderr announcement always reaches the final state.
		fmt.Fprintf(os.Stderr, "telemetry: lingering %s before exit\n", *linger)
		time.Sleep(*linger)
	}
}

// parseBackends resolves the -backend flag: a registered backend name
// maps alone, "race" enters every registered backend into the portfolio.
func parseBackends(s string) ([]core.Backend, error) {
	switch strings.ToLower(s) {
	case "":
		return []core.Backend{core.DefaultBackend()}, nil
	case "race":
		return core.Backends(), nil
	}
	b, err := core.BackendByName(strings.ToLower(s))
	if err != nil {
		return nil, err
	}
	return []core.Backend{b}, nil
}

func run(w io.Writer, o cliOptions) error {
	k, err := kernels.ByName(o.kernel)
	if err != nil {
		return err
	}
	var flow core.Flow
	switch strings.ToLower(o.flow) {
	case "basic":
		flow = core.FlowBasic
	case "acmap":
		flow = core.FlowACMAP
	case "ecmap":
		flow = core.FlowECMAP
	case "cab", "full", "aware":
		flow = core.FlowCAB
	default:
		return fmt.Errorf("unknown flow %q", o.flow)
	}
	grid, err := arch.NewGrid(arch.ConfigName(strings.ToUpper(o.config)))
	if err != nil {
		return err
	}
	g := k.Build()
	backends, err := parseBackends(o.backend)
	if err != nil {
		return err
	}
	opt := core.DefaultOptions(flow)
	opt.Seed = o.seed
	opt.Obs = o.rec
	runPortfolio := o.seeds > 1 || len(backends) > 1
	var m *core.Mapping // captured so a cache miss still verifies at mapping level
	compute := func() (mapcache.Computed, error) {
		if runPortfolio {
			res, err := core.MapPortfolio(context.Background(), g, grid, opt, core.PortfolioOptions{
				NumSeeds:  o.seeds,
				Workers:   o.parallel,
				Backends:  backends,
				Objective: power.PortfolioObjective(power.Default()),
				// The objective's Primary is TotalWords, so incumbent-sharing
				// pruning is winner-invariant here.
				PrimaryIsWords: true,
			})
			if err != nil {
				return mapcache.Computed{}, err
			}
			fmt.Fprint(w, res.RenderReports())
			m = res.Mapping
			return mapcache.Computed{Mapping: res.Mapping, Seed: res.Seed, Backend: res.Backend}, nil
		}
		sm, err := backends[0].Map(context.Background(), g, grid, opt)
		if err != nil {
			return mapcache.Computed{}, err
		}
		m = sm
		return mapcache.Computed{Mapping: sm, Seed: opt.Seed, Backend: backends[0].Name()}, nil
	}

	var prog *asm.Program
	compileTime := func() time.Duration { return m.Stats.CompileTime }
	if o.cachedir != "" {
		backendNames := make([]string, len(backends))
		for i, b := range backends {
			backendNames[i] = b.Name()
		}
		req := mapcache.Request{Graph: g, Grid: grid, Opt: opt, Backends: backendNames}
		if runPortfolio {
			req.Seeds = (&core.PortfolioOptions{NumSeeds: o.seeds}).SeedList(o.seed)
			req.Objective = "words+energy"
		}
		cres, err := mapcache.New(mapcache.Config{Dir: o.cachedir, Obs: o.rec}).GetOrStore(req, compute)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "cache: %s\n", cres.Source)
		prog = cres.Program
		meta := cres.Meta
		compileTime = func() time.Duration { return meta.Stats.CompileTime }
	} else {
		comp, err := compute()
		if err != nil {
			return err
		}
		m = comp.Mapping
		if ok, t := m.FitsMemory(); !ok {
			return fmt.Errorf("mapping overflows tile %d's context memory on %s", t+1, grid.Name)
		}
		if prog, err = asm.Assemble(m); err != nil {
			return err
		}
	}
	if o.verify {
		// On a cache hit m is nil and the mapping-level passes skip; the
		// bitstream passes still run (the cache itself re-verified any disk
		// entry before serving it).
		vres := verify.Run(&verify.Context{Graph: g, Grid: grid, Mapping: m, Program: prog})
		fmt.Fprintf(w, "static verification (%d passes):\n%s", len(vres.Ran), vres.Report())
		if err := vres.Err(); err != nil {
			return err
		}
	}
	s, err := sim.New(prog, sim.WithObs(o.rec))
	if err != nil {
		return err
	}
	res, _, mem, err := s.RunVerified(k.Init())
	if err != nil {
		var div *sim.DivergenceError
		if errors.As(err, &div) {
			fmt.Fprint(w, divergenceReport(div, flow.String()))
		}
		return err
	}
	if err := k.Check(mem); err != nil {
		return fmt.Errorf("golden check failed: %w", err)
	}
	params := power.Default()
	e := params.CGRAEnergy(grid, res)
	fmt.Fprintf(w, "%s on %s (%s): verified OK\n", o.kernel, grid.Name, flow)
	fmt.Fprintf(w, "cycles %d (stalls %d), context words %d (config), compile %s\n",
		res.Cycles, res.StallCycles, res.ConfigWords, compileTime().Round(1_000_000))
	fmt.Fprintf(w, "energy %.4f µJ (config %.4f, fetch %.4f, compute %.4f, memory %.4f, leak %.4f)\n",
		e.Total(), e.Config, e.Fetch, e.Compute, e.Memory, e.Leak)
	if o.batch > 1 {
		lanes := make([]cdfg.Memory, o.batch)
		for l := range lanes {
			lanes[l] = k.Init()
		}
		start := time.Now()
		bres, err := s.Engine().RunBatch(lanes)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("batch run (B=%d): %w", o.batch, err)
		}
		for l := range lanes {
			if !reflect.DeepEqual(bres[l], res) {
				return fmt.Errorf("batch lane %d diverges from the verified run", l)
			}
			if err := k.Check(lanes[l]); err != nil {
				return fmt.Errorf("batch lane %d golden check failed: %w", l, err)
			}
		}
		fmt.Fprintf(w, "batch B=%d: all lanes verified identical, %s/input (%s total)\n",
			o.batch, (elapsed / time.Duration(o.batch)).Round(time.Microsecond),
			elapsed.Round(time.Microsecond))
	}
	if o.withCPU {
		cmem := k.Init()
		cres, err := cpu.Run(g, cmem, cpu.DefaultCosts())
		if err != nil {
			return err
		}
		if err := k.Check(cmem); err != nil {
			return fmt.Errorf("CPU golden check failed: %w", err)
		}
		ce := params.CPUEnergy(cres)
		fmt.Fprintf(w, "or1k CPU: %d cycles, %d instrs, %.4f µJ — CGRA speedup %.1fx, energy gain %.1fx\n",
			cres.Cycles, cres.Instrs, ce.Total(),
			float64(cres.Cycles)/float64(res.Cycles), ce.Total()/e.Total())
	}
	return nil
}

// divergenceReport renders a simulator/interpreter divergence the way
// cgrasim prints it: the trace-package table of divergent memory words.
func divergenceReport(div *sim.DivergenceError, flow string) string {
	words := make([]trace.DivergentWord, len(div.Mismatches))
	for i, m := range div.Mismatches {
		words[i] = trace.DivergentWord{Addr: m.Addr, Ref: m.Ref, Got: m.Got}
	}
	return trace.Divergence(div.Kernel, flow, div.Config, div.Cycles, div.Total, words)
}
