// Command cgramap maps one benchmark kernel onto a CGRA configuration
// with a selected mapping flow and reports the mapping statistics: per-
// tile context-memory occupancy, instruction mix, and compile time.
//
// With -seeds N > 1 it runs a parallel portfolio: N pruning seeds are
// mapped concurrently and the best mapping wins (fewest context words,
// ties broken by estimated energy, then by the lowest seed — the winner
// is deterministic regardless of scheduling).
//
// Usage:
//
//	cgramap -kernel MatM -config HET1 -flow cab [-verify] [-listing] [-dot]
//	cgramap -kernel MatM -config HET1 -seeds 8 [-parallel 4]
//
// -cpuprofile/-memprofile write runtime/pprof profiles of the mapping run
// for inspecting the search hot path on a single kernel/config pair.
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/prof"
	"repro/internal/static"
	"repro/internal/trace"
	"repro/internal/verify"
)

// cliOptions collects the flag values so tests can drive run directly.
type cliOptions struct {
	kernel   string
	config   string
	flow     string
	backend  string
	listing  bool
	dot      bool
	verify   bool
	analyze  bool
	strip    bool
	seed     int64
	seeds    int
	parallel int
	cachedir string
	// rec threads the -metrics/-events recorder into the mapper; nil (the
	// zero value the tests use) disables instrumentation entirely.
	rec *obs.Recorder
}

func main() {
	var o cliOptions
	flag.StringVar(&o.kernel, "kernel", "FIR", "kernel name: "+strings.Join(kernels.Names(), ", "))
	flag.StringVar(&o.config, "config", "HOM64", "CGRA configuration: HOM64, HOM32, HET1, HET2")
	flag.StringVar(&o.flow, "flow", "cab", "mapping flow: basic, acmap, ecmap, cab")
	flag.StringVar(&o.backend, "backend", "heuristic",
		"mapping backend: "+strings.Join(core.BackendNames(), ", ")+", or race (all backends compete, best mapping wins)")
	flag.BoolVar(&o.listing, "listing", false, "print the per-tile context disassembly")
	flag.BoolVar(&o.dot, "dot", false, "print the kernel CDFG in Graphviz DOT form and exit")
	flag.BoolVar(&o.verify, "verify", false, "assemble and statically verify the mapping, reporting per-pass verdicts")
	flag.BoolVar(&o.analyze, "analyze", false, "run the static bitstream analyzer and report reachability, dead context and energy bounds")
	flag.BoolVar(&o.strip, "strip", false, "run dead-context elimination, report the words saved, and re-verify the stripped bitstream")
	flag.Int64Var(&o.seed, "seed", 1, "stochastic pruning seed (first seed of a portfolio)")
	flag.IntVar(&o.seeds, "seeds", 1, "portfolio width: seeds mapped concurrently, best mapping wins")
	flag.IntVar(&o.parallel, "parallel", 0, "portfolio worker pool size (0 = one per CPU)")
	flag.StringVar(&o.cachedir, "cachedir", "", "reuse compiled mappings through the mapping cache stored in this directory (entries are re-verified before use)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	metrics := flag.String("metrics", "", "write instrumentation counters as JSONL to this file")
	events := flag.String("events", "", "write a Chrome trace_event timeline to this file")
	flag.Parse()

	fr := obs.FileOutputs(*metrics, *events)
	o.rec = fr.Recorder
	stopProf, err := prof.Start(*cpuprofile, *memprofile, fr.Recorder)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgramap:", err)
		os.Exit(1)
	}
	// The deferred call is the panic safety net; the explicit call below
	// collects the stop error (stop is idempotent).
	defer stopProf()
	err = run(os.Stdout, o)
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if ferr := fr.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgramap:", err)
		os.Exit(1)
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

func parseFlow(s string) (core.Flow, error) {
	switch strings.ToLower(s) {
	case "basic":
		return core.FlowBasic, nil
	case "acmap":
		return core.FlowACMAP, nil
	case "ecmap":
		return core.FlowECMAP, nil
	case "cab", "full", "aware":
		return core.FlowCAB, nil
	}
	return 0, fmt.Errorf("unknown flow %q", s)
}

func run(w io.Writer, o cliOptions) error {
	k, err := kernels.ByName(o.kernel)
	if err != nil {
		return err
	}
	g := k.Build()
	if o.dot {
		fmt.Fprintln(w, cdfg.Dot(g))
		return nil
	}
	fl, err := parseFlow(o.flow)
	if err != nil {
		return err
	}
	grid, err := arch.NewGrid(arch.ConfigName(strings.ToUpper(o.config)))
	if err != nil {
		return err
	}
	backends, err := parseBackends(o.backend)
	if err != nil {
		return err
	}
	opt := core.DefaultOptions(fl)
	opt.Seed = o.seed
	opt.Obs = o.rec
	runPortfolio := o.seeds > 1 || len(backends) > 1
	var computed *core.Mapping // captured so a cache miss still gets the full report
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
			fmt.Fprintf(w, "portfolio wall time %s\n", res.Wall.Round(1_000_000))
			computed = res.Mapping
			return mapcache.Computed{Mapping: res.Mapping, Seed: res.Seed, Backend: res.Backend}, nil
		}
		m, err := backends[0].Map(context.Background(), g, grid, opt)
		if err != nil {
			return mapcache.Computed{}, err
		}
		computed = m
		return mapcache.Computed{Mapping: m, Seed: opt.Seed, Backend: backends[0].Name()}, nil
	}

	var m *core.Mapping
	var prog *asm.Program
	var meta mapcache.Meta
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
		fmt.Fprintf(w, "image sha256 %x\n", sha256.Sum256(cres.Image))
		prog, meta = cres.Program, cres.Meta
		// A miss (or bypass) computed the mapping in-process; report it in
		// full below. A hit has only the stored metadata.
		m = computed
	} else {
		comp, err := compute()
		if err != nil {
			return err
		}
		m = comp.Mapping
	}
	if m == nil {
		// Cache hit: the Mapping object is gone, but the stored metadata and
		// the rebuilt (verified) program carry everything the report needs.
		fmt.Fprintf(w, "mapped %s onto %s with %s from cache (originally %s, seed %d via %s)\n",
			o.kernel, grid.Name, fl, meta.Stats.CompileTime.Round(1_000_000), meta.Seed, meta.Backend)
		fmt.Fprintf(w, "ops %d, moves %d, pnops %d, words %d\n", meta.Ops, meta.Moves, meta.Pnops, meta.Words)
		caps := make([]int, grid.NumTiles())
		for i := range caps {
			caps[i] = grid.Tile(arch.TileID(i)).CMWords
		}
		fmt.Fprint(w, trace.Utilization("context-memory occupancy:", meta.TileWords, caps))
		return finishProgram(w, o, g, grid, nil, prog)
	}
	fmt.Fprintf(w, "mapped %s onto %s with %s in %s\n", o.kernel, grid.Name, fl, m.Stats.CompileTime.Round(1_000_000))
	if ex := m.Stats.Exact; ex.NodeBudget > 0 {
		status := fmt.Sprintf("budget %d exhausted", ex.NodeBudget)
		if ex.Proven {
			status = "proven optimal"
		}
		fmt.Fprintf(w, "exact search: warm start %d -> best %d words (%s; expanded %d, bound-pruned %d, conflict-pruned %d)\n",
			ex.WarmWords, ex.BestWords, status, ex.Expanded, ex.BoundPruned, ex.ConflictPruned)
	}
	fmt.Fprintf(w, "ops %d, moves %d, pnops %d; partials explored %d (ACMAP pruned %d, ECMAP pruned %d, stochastic %d)\n",
		m.TotalOps(), m.TotalMoves(), m.TotalPnops(),
		m.Stats.Partials, m.Stats.PrunedACMAP, m.Stats.PrunedECMAP, m.Stats.PrunedStochastic)
	caps := make([]int, grid.NumTiles())
	for i := range caps {
		caps[i] = grid.Tile(arch.TileID(i)).CMWords
	}
	fmt.Fprint(w, trace.Utilization("context-memory occupancy:", m.TileWords(), caps))
	if ok, t := m.FitsMemory(); !ok {
		fmt.Fprintf(w, "WARNING: tile %d overflows its context memory — this mapping cannot run on %s\n", t+1, grid.Name)
	}
	syms := make([]string, 0, len(m.SymHomes))
	for s := range m.SymHomes {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		h := m.SymHomes[s]
		fmt.Fprintf(w, "symbol %-8s -> tile %d r%d\n", s, h.Tile+1, h.Reg)
	}
	return finishProgram(w, o, g, grid, m, prog)
}

// finishProgram runs the post-mapping stages shared by the fresh-map and
// cache-hit paths: listing, static verification, analysis and dead-context
// stripping. prog may be nil (fresh map without a cache), in which case it
// is assembled on demand; m may be nil (cache hit), in which case the
// verifier's Needs gating skips the mapping-level passes and checks the
// rebuilt bitstream alone.
func finishProgram(w io.Writer, o cliOptions, g *cdfg.Graph, grid *arch.Grid, m *core.Mapping, prog *asm.Program) error {
	if prog == nil {
		if !(o.listing || o.verify || o.analyze || o.strip) {
			return nil
		}
		var err error
		if prog, err = asm.Assemble(m); err != nil {
			return err
		}
	}
	if o.listing {
		fmt.Fprint(w, asm.Listing(prog))
	}
	if o.verify {
		vres := verify.Run(&verify.Context{Graph: g, Grid: grid, Mapping: m, Program: prog})
		fmt.Fprintf(w, "static verification (%d passes):\n%s", len(vres.Ran), vres.Report())
		if err := vres.Err(); err != nil {
			return err
		}
	}
	if o.analyze || o.strip {
		a, err := static.Analyze(prog, static.WithObs(o.rec))
		if err != nil {
			return err
		}
		if o.analyze {
			fmt.Fprint(w, a.Report())
		}
		if o.strip {
			stripped, rep, err := static.Strip(prog, a, static.WithObs(o.rec))
			if err != nil {
				return err
			}
			fmt.Fprintln(w, rep)
			vres := verify.CheckProgram(stripped)
			fmt.Fprintf(w, "stripped bitstream re-verification:\n%s", vres.Report())
			if err := vres.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}
