package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/oracle"
)

type outcome string

const (
	mapped   outcome = "mapped"   // mapped, simulated, output verified
	unmapped outcome = "unmapped" // core.Map found no mapping: a clean outcome
	clean    outcome = "ok"       // a CPU baseline, or a memory-unaware mapping that overflows: checked, nothing simulated
	failed   outcome = "error"    // an output failed a correctness check
)

// result is one request's outcome and the deterministic quality numbers
// it contributes.
type result struct {
	outcome outcome
	err     error
	words   int
	cycles  int64
	energy  float64
}

func failure(err error) result { return result{outcome: failed, err: err} }

// quality is the deterministic part of a pass: which requests mapped and
// what the mappings cost. Energy sums in request-list order, so a pass
// sums identically whatever order its requests ran in.
type quality struct {
	mapRequests, unmapped int
	words                 int
	cycles                int64
	energy                float64
}

func qualityOf(reqs []request, res []result) quality {
	var q quality
	for i := range reqs {
		if reqs[i].kind == kindCPU {
			continue
		}
		q.mapRequests++
		switch res[i].outcome {
		case unmapped:
			q.unmapped++
		case mapped:
			q.words += res[i].words
			q.cycles += res[i].cycles
			q.energy += res[i].energy
		}
	}
	return q
}

// agrees compares the numbers both passes measured; random-cdfg's
// untraced oracle checks report no context words or energy, so those are
// compared only when both sides have them.
func (q quality) agrees(o quality, full bool) bool {
	if !full {
		q.words, q.energy, o.words, o.energy = 0, 0, 0, 0
	}
	return q == o
}

// pass is the per-pass state of one workload: a fresh exp.Runner, cache
// instance or oracle cache directory. do runs one request; t is the
// client's span track in a traced replay and nil otherwise.
type pass interface {
	do(t *track, i int, r *request) result
	// finish runs once after every request completed (RenderAll) and
	// reports whether it ran anything.
	finish(t *track) (bool, error)
	// close releases the pass's resources; it is not timed.
	close()
}

// workload is one named request mix.
type workload interface {
	requests() []request
	// setUp prepares a run; it is timed as setup_s, setupReps times.
	setUp() error
	setupReps() int
	newPass(traced bool) (pass, error)
	// kernelQuality reports whether untraced passes measure context
	// words and energy (the kernel workloads do; oracle checks do not).
	kernelQuality() bool
}

// fault is the self-test's fault injection, proving a failed check is
// counted rather than dropped.
type fault struct {
	// req and mutate corrupt the assembled program of one random-cdfg
	// request, between assembly and simulation (oracle.Pipeline.Mutate).
	req    string
	mutate func(*asm.Program)
	// cache rewrites paper-eval-warm's cache entries after set-up; it
	// gets the directory and the set-up compile's bitstream per request.
	cache func(dir string, images map[string][]byte) error
}

func newWorkload(name, tmp string, reqLimit int, f fault) (workload, error) {
	limit := func(r []request) []request {
		if reqLimit > 0 && reqLimit < len(r) {
			return r[:reqLimit]
		}
		return r
	}
	switch name {
	case "paper-eval":
		reqs := limit(paperRequests())
		return &paperEval{reqs: reqs, render: len(reqs) == len(paperRequests())}, nil
	case "paper-eval-warm":
		return &paperWarm{reqs: limit(warmRequests()), tmp: tmp, fault: f.cache}, nil
	case "random-cdfg":
		return &randomCDFG{limit: limit, tmp: tmp, fault: f}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-eval, paper-eval-warm or random-cdfg)", name)
}

// classify turns an exp.Runner cell into a result. A cell with no tile
// words never got a mapping (core.Map or the cache's compute failed); a
// basic-flow mapping that overflows the configuration is refused by the
// runner, as the paper does. Any other failed cell failed a check
// downstream of the mapper: assembly, analysis, simulation against the
// interpreter, or the kernel's golden output.
func classify(c *exp.Cell) result {
	switch {
	case c.OK:
		return result{outcome: mapped, words: c.TotalWords, cycles: c.Cycles, energy: c.Energy.Total()}
	case c.TileWords == nil:
		return result{outcome: unmapped}
	case c.Flow == core.FlowBasic && overflows(c.Config, c.TileWords):
		return result{outcome: clean}
	}
	return failure(fmt.Errorf("%s/%s/%s: %s", c.Kernel, flowName(c.Flow), c.Config, c.Fail))
}

func overflows(config arch.ConfigName, tileWords []int) bool {
	grid := arch.MustGrid(config)
	for i, w := range tileWords {
		if w > grid.Tile(arch.TileID(i)).CMWords {
			return true
		}
	}
	return false
}

// warmUp builds every kernel's graph and golden input and evaluates FIR
// under each flow on a throwaway runner, so lazy package state and
// first-touch allocation on every flow's code path happen before timing.
func warmUp() error {
	for _, k := range kernels.All() {
		k.Build()
		k.Init()
	}
	run := exp.NewRunner()
	for _, flow := range core.Flows() {
		if c := run.Run("FIR", flow, arch.HOM64); !c.OK {
			return fmt.Errorf("warm-up cell FIR/%s/HOM64 failed: %s", flowName(flow), c.Fail)
		}
	}
	return nil
}

// paperEval is the full evaluation cgrabench regenerates, on a fresh
// exp.Runner with no cache, then rendered.
type paperEval struct {
	reqs   []request
	render bool        // every request is issued, so RenderAll renders from cells already evaluated
	last   *exp.Runner // the latest untraced pass's runner, warm for the traced render
}

func (w *paperEval) requests() []request { return w.reqs }
func (w *paperEval) setUp() error        { return warmUp() }
func (w *paperEval) setupReps() int      { return 5 }
func (w *paperEval) kernelQuality() bool { return true }

func (w *paperEval) newPass(traced bool) (pass, error) {
	if traced {
		p := &replayPass{}
		if w.render {
			p.render = w.last
		}
		return p, nil
	}
	w.last = exp.NewRunner()
	return &runnerPass{run: w.last, render: w.render}, nil
}

// paperWarm sends the evaluation's cacheable cells to a fresh exp.Runner
// whose Cache is a fresh mapcache instance over a disk directory that a
// cold pass filled during set-up: what a second `cgrabench -cachedir`
// run does.
type paperWarm struct {
	reqs   []request
	tmp    string
	fault  func(dir string, images map[string][]byte) error
	dir    string
	cold   []*exp.Cell // the set-up compile's cells, per request
	images [][]byte    // the set-up compile's bitstreams, per request
}

func (w *paperWarm) requests() []request { return w.reqs }
func (w *paperWarm) setupReps() int      { return 1 }
func (w *paperWarm) kernelQuality() bool { return true }

// setUp fills the cache directory through a cold runner and records each
// cell and bitstream the cold compile produced, the reference every warm
// request is checked against.
func (w *paperWarm) setUp() error {
	if err := warmUp(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.tmp, "warm-cache-")
	if err != nil {
		return err
	}
	w.dir = dir
	cache := mapcache.New(mapcache.Config{Capacity: 1024, Dir: dir})
	run := exp.NewRunner()
	run.Cache = cache
	w.cold = make([]*exp.Cell, len(w.reqs))
	w.images = make([][]byte, len(w.reqs))
	errs := make([]error, len(w.reqs))
	forEach(len(w.reqs), clientCount(), func(_, i int) {
		w.cold[i], _, errs[i] = w.reqs[i].evaluate(run)
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("cold fill: %w", err)
	}
	for i := range w.reqs {
		r := &w.reqs[i]
		if r.kind != kindCell || !w.cold[i].OK {
			continue
		}
		res, err := cache.GetOrStore(cacheRequest(r), func() (mapcache.Computed, error) {
			return mapcache.Computed{}, errors.New("not in the cache after the cold fill")
		})
		if err != nil {
			return fmt.Errorf("cold fill: %s: %w", r.name, err)
		}
		w.images[i] = res.Image
	}
	if w.fault != nil {
		byName := map[string][]byte{}
		for i, img := range w.images {
			byName[w.reqs[i].name] = img
		}
		return w.fault(dir, byName)
	}
	return nil
}

func (w *paperWarm) newPass(traced bool) (pass, error) {
	cache := mapcache.New(mapcache.Config{Capacity: 1024, Dir: w.dir})
	if traced {
		return &replayPass{cache: cache, images: w.images}, nil
	}
	run := exp.NewRunner()
	run.Cache = cache
	return &runnerPass{run: run, cold: w.cold}, nil
}

// cacheRequest is the mapcache key exp.Runner builds for a kernel cell.
func cacheRequest(r *request) mapcache.Request {
	k, _ := kernels.ByName(r.kernel) // names come from kernels.Names()
	return mapcache.Request{Graph: k.Build(), Grid: arch.MustGrid(r.config), Opt: r.options()}
}

// runnerPass issues kernel requests through exp.Runner.
type runnerPass struct {
	run    *exp.Runner
	render bool
	cold   []*exp.Cell // warm workload: the set-up cells, indexed like the request list
}

func (p *runnerPass) do(_ *track, i int, r *request) result {
	cell, cpuCell, err := r.evaluate(p.run)
	switch {
	case err != nil:
		return failure(fmt.Errorf("%s: %w", r.name, err))
	case cpuCell != nil:
		return result{outcome: clean}
	}
	if p.cold != nil && p.cold[i] != nil {
		if err := checkCold(p.cold[i], cell); err != nil {
			return failure(err)
		}
	}
	return classify(cell)
}

func (p *runnerPass) finish(*track) (bool, error) {
	if !p.render {
		return false, nil
	}
	_, err := p.run.RenderAll()
	return true, err
}

func (p *runnerPass) close() {}

// checkCold reports a warm cell that differs from the set-up compile's
// cell in anything but timing: a hit must serve the same bitstream.
func checkCold(cold, warm *exp.Cell) error {
	a, b := *cold, *warm
	a.CompileTime, b.CompileTime = 0, 0
	a.MapStats.CompileTime, b.MapStats.CompileTime = 0, 0
	a.MapStats.Phases, b.MapStats.Phases = core.PhaseTimes{}, core.PhaseTimes{}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%s/%s/%s: warm cell differs from the set-up compile", warm.Kernel, flowName(warm.Flow), warm.Config)
	}
	return nil
}

// randomCDFG sends oracle checks of generated graphs through the
// production pipeline (cache differential, batch and static cross-checks
// on). Each pass gets a fresh cache directory, so every check stores an
// entry and reads it back.
type randomCDFG struct {
	limit func([]request) []request
	tmp   string
	fault fault
	reqs  []request
}

func (w *randomCDFG) requests() []request { return w.reqs }
func (w *randomCDFG) setupReps() int      { return 5 }
func (w *randomCDFG) kernelQuality() bool { return false }

// setUp warms up the toolchain, generates the graph population and runs
// one warm-up check through the oracle pipeline.
func (w *randomCDFG) setUp() error {
	if err := warmUp(); err != nil {
		return err
	}
	w.reqs = w.limit(randomRequests())
	dir, err := os.MkdirTemp(w.tmp, "warmup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &w.reqs[0]
	(&oracle.Pipeline{CacheDir: dir}).Check(r.graph, r.mem, r.cell, checkSeed)
	return nil
}

func (w *randomCDFG) newPass(traced bool) (pass, error) {
	dir, err := os.MkdirTemp(w.tmp, "oracle-cache-")
	if err != nil {
		return nil, err
	}
	if traced {
		return &replayPass{oracleDir: dir}, nil
	}
	return &checkPass{dir: dir, fault: w.fault}, nil
}

// checkPass issues oracle.Pipeline.Check requests.
type checkPass struct {
	dir   string
	fault fault
}

func (p *checkPass) do(_ *track, _ int, r *request) result {
	pipe := oracle.Pipeline{CacheDir: p.dir}
	if r.name == p.fault.req {
		pipe.Mutate = p.fault.mutate
	}
	return checkResult(r, pipe.Check(r.graph, r.mem, r.cell, checkSeed))
}

func (p *checkPass) finish(*track) (bool, error) { return false, nil }
func (p *checkPass) close()                      { os.RemoveAll(p.dir) }

// checkResult classifies an oracle outcome: any Bug() outcome fails a
// correctness check; a clean no-mapping or overflow does not.
func checkResult(r *request, cr oracle.CellResult) result {
	switch {
	case cr.Outcome == oracle.Pass:
		return result{outcome: mapped, cycles: cr.Cycles}
	case cr.Outcome == oracle.NoMapping:
		return result{outcome: unmapped}
	case cr.Outcome == oracle.Overflow:
		return result{outcome: clean}
	}
	return failure(fmt.Errorf("%s: %s: %v", r.name, cr.Outcome, cr.Err))
}
