package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/oracle"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/verify"
)

// replayPass is the traced run: it replays each request by calling every
// layer's public function itself, in the order exp.Runner's cell
// evaluation and oracle.Pipeline.Check call them, with a span around
// each call.
type replayPass struct {
	render    *exp.Runner     // paper-eval: a warm runner to time RenderAll on
	cache     *mapcache.Cache // paper-eval-warm: this pass's cache instance
	images    [][]byte        // paper-eval-warm: the set-up compile's bitstreams
	oracleDir string          // random-cdfg: this pass's cache directory
}

func (p *replayPass) do(t *track, i int, r *request) result {
	switch r.kind {
	case kindCPU:
		return replayCPU(t, r)
	case kindCheck:
		return p.check(t, r)
	}
	res, img := p.cell(t, r)
	if p.images != nil && p.images[i] != nil && !bytes.Equal(img, p.images[i]) {
		return failure(fmt.Errorf("%s: cache served a bitstream that differs from the set-up compile", r.name))
	}
	return res
}

func (p *replayPass) finish(t *track) (bool, error) {
	if p.render == nil {
		return false, nil
	}
	var err error
	t.do("exp.render", func() { _, err = p.render.RenderAll() })
	return true, err
}

func (p *replayPass) close() {
	if p.oracleDir != "" {
		os.RemoveAll(p.oracleDir)
	}
}

// cell mirrors exp.Runner's evaluation of one kernel cell, with or
// without the mapping cache. It returns the served bitstream on a cache
// path, for the byte-identity check.
func (p *replayPass) cell(t *track, r *request) (result, []byte) {
	var k kernels.Kernel
	var g *cdfg.Graph
	var err error
	t.do("cdfg.build", func() {
		if k, err = kernels.ByName(r.kernel); err == nil {
			g = k.Build()
		}
	})
	if err != nil {
		return failure(err), nil
	}
	grid := arch.MustGrid(r.config)
	opt := r.options()
	var prog *asm.Program
	var tileWords []int
	var image []byte
	if p.cache == nil {
		id := t.begin("core.map")
		m, err := core.Map(g, grid, opt)
		t.mapped(id, m, err)
		if err != nil {
			return result{outcome: unmapped}, nil
		}
		tileWords = m.TileWords()
		if overflows(r.config, tileWords) {
			return overflowResult(r)
		}
		t.do("asm.assemble", func() { prog, err = asm.Assemble(m) })
		if err != nil {
			return failure(fmt.Errorf("%s: assemble: %w", r.name, err)), nil
		}
	} else {
		t.cacheExpected++
		id := t.begin("mapcache.get")
		res, err := p.cache.GetOrStore(mapcache.Request{Graph: g, Grid: grid, Opt: opt},
			func() (mapcache.Computed, error) {
				mid := t.begin("core.map")
				m, err := core.Map(g, grid, opt)
				t.mapped(mid, m, err)
				if err != nil {
					return mapcache.Computed{}, err
				}
				return mapcache.Computed{Mapping: m, Seed: opt.Seed, Backend: core.DefaultBackend().Name()}, nil
			})
		t.end(id)
		t.spans[id].name = t.cacheSource(res.Source, err)
		if err != nil {
			return result{outcome: unmapped}, nil
		}
		prog, tileWords, image = res.Program, res.Meta.TileWords, res.Image
		if overflows(r.config, tileWords) {
			return overflowResult(r)
		}
	}
	var a *static.Analysis
	t.do("static.analyze", func() { a, err = static.Analyze(prog) })
	if err != nil {
		return failure(fmt.Errorf("%s: static analysis: %w", r.name, err)), image
	}
	var rep *static.StripReport
	t.do("static.strip", func() { _, rep, err = static.Strip(prog, a) })
	if err != nil {
		return failure(fmt.Errorf("%s: dead-context elimination: %w", r.name, err)), image
	}
	t.deadWords += rep.WordsSaved()
	var s *sim.Sim
	t.do("sim.new", func() { s, err = sim.New(prog) })
	if err != nil {
		return failure(fmt.Errorf("%s: %w", r.name, err)), image
	}
	var in cdfg.Memory
	t.do("kernels.init", func() { in = k.Init() })
	var sr *sim.Result
	var out cdfg.Memory
	id := t.begin("sim.run")
	sr, _, out, err = s.RunVerified(in)
	t.end(id)
	if err != nil {
		return failure(fmt.Errorf("%s: %w", r.name, err)), image
	}
	t.simCycles += sr.Cycles
	t.do("kernels.check", func() { err = k.Check(out) })
	if err != nil {
		return failure(fmt.Errorf("%s: golden check: %w", r.name, err)), image
	}
	var e power.EnergyBreakdown
	t.do("power.energy", func() { e = power.Default().CGRAEnergy(grid, sr) })
	words := 0
	for _, w := range tileWords {
		words += w
	}
	return result{outcome: mapped, words: words, cycles: sr.Cycles, energy: e.Total()}, image
}

// overflowResult mirrors the runner: a basic-flow mapping that
// overflows is refused; an aware flow overflowing is a mapper bug.
func overflowResult(r *request) (result, []byte) {
	if r.flow == core.FlowBasic {
		return result{outcome: clean}, nil
	}
	return failure(fmt.Errorf("%s: aware flow returned a mapping that overflows context memory", r.name)), nil
}

// cacheSource names a finished mapcache.get span by the tier that
// served it and counts hits and recomputes.
func (t *track) cacheSource(source string, err error) string {
	switch {
	case err == nil && (source == "disk" || source == "memory"):
		t.cacheHits++
		return "mapcache.hit"
	case err == nil && source == "compute":
		t.recomputes++
		return "mapcache.recompute"
	}
	t.recomputes++
	return "mapcache.miss"
}

// replayCPU mirrors exp.Runner.CPU.
func replayCPU(t *track, r *request) result {
	var k kernels.Kernel
	var g *cdfg.Graph
	var mem cdfg.Memory
	var err error
	t.do("cdfg.build", func() {
		if k, err = kernels.ByName(r.kernel); err == nil {
			g = k.Build()
		}
	})
	if err != nil {
		return failure(err)
	}
	t.do("kernels.init", func() { mem = k.Init() })
	var res *cpu.Result
	t.do("cpu.run", func() { res, err = cpu.Run(g, mem, cpu.DefaultCosts()) })
	if err != nil {
		return failure(fmt.Errorf("%s: %w", r.name, err))
	}
	t.do("kernels.check", func() { err = k.Check(mem) })
	if err != nil {
		return failure(fmt.Errorf("%s: golden check: %w", r.name, err))
	}
	t.do("power.energy", func() { power.Default().CPUEnergy(res) })
	return result{outcome: clean}
}

// check mirrors oracle.Pipeline.Check with the production pipeline:
// verify, batch differential (2 lanes), static cross-check and the cache
// differential all on.
func (p *replayPass) check(t *track, r *request) result {
	g, mem := r.graph, r.mem
	grid := arch.MustGrid(r.cell.Config)
	opt := r.options()
	id := t.begin("core.map")
	m, err := core.Map(g, grid, opt)
	t.mapped(id, m, err)
	if err != nil {
		return result{outcome: unmapped}
	}
	if ok, _ := m.FitsMemory(); !ok {
		if r.cell.Mode >= oracle.ModeACMAP {
			return failure(fmt.Errorf("%s: aware mode returned a mapping that overflows context memory", r.name))
		}
		return result{outcome: clean}
	}
	words := 0
	for _, w := range m.TileWords() {
		words += w
	}
	var prog *asm.Program
	t.do("asm.assemble", func() { prog, err = asm.Assemble(m) })
	if err != nil {
		return failure(fmt.Errorf("%s: assemble: %w", r.name, err))
	}
	var vres *verify.Result
	t.do("verify.check", func() { vres = verify.Run(&verify.Context{Graph: g, Mapping: m, Program: prog}) })
	if !vres.OK() {
		t.verifyRejects++
		return failure(fmt.Errorf("%s: static verification: %w", r.name, vres.Err()))
	}
	var s *sim.Sim
	t.do("sim.new", func() { s, err = sim.New(prog) })
	if err != nil {
		return failure(fmt.Errorf("%s: sim: %w", r.name, err))
	}
	id = t.begin("sim.run")
	res, _, _, err := s.RunVerified(mem)
	t.end(id)
	if err != nil {
		return failure(fmt.Errorf("%s: %w", r.name, err))
	}
	t.simCycles += res.Cycles
	if err := checkBatch(t, s, mem); err != nil {
		return failure(fmt.Errorf("%s: %w", r.name, err))
	}
	if err := checkStatic(t, prog, s, mem); err != nil {
		return failure(fmt.Errorf("%s: %w", r.name, err))
	}
	if err := p.checkCache(t, r, m, prog); err != nil {
		return failure(fmt.Errorf("%s: %w", r.name, err))
	}
	return result{outcome: mapped, words: words, cycles: res.Cycles}
}

// checkBatch mirrors the oracle's batched-engine differential.
func checkBatch(t *track, s *sim.Sim, mem cdfg.Memory) error {
	const lanes = 2 // the oracle's default batch width
	ref := mem.Clone()
	id := t.begin("sim.run")
	refRes, err := s.RunScalar(ref)
	t.end(id)
	if err != nil {
		return fmt.Errorf("scalar reference run: %w", err)
	}
	bmems := make([]cdfg.Memory, lanes)
	var bres []*sim.Result
	t.do("sim.batch", func() {
		for l := range bmems {
			bmems[l] = mem.Clone()
		}
		bres, err = s.Engine().RunBatch(bmems)
	})
	if err != nil {
		return fmt.Errorf("batch engine failed where the scalar run passed: %w", err)
	}
	var same bool
	t.do("oracle.compare", func() {
		same = true
		for l := 0; l < lanes; l++ {
			same = same && reflect.DeepEqual(bres[l], refRes) && reflect.DeepEqual(bmems[l], ref)
		}
	})
	if !same {
		return errors.New("batch lanes diverged from the scalar interpreter")
	}
	return nil
}

// checkStatic mirrors the oracle's static-analyzer cross-check.
func checkStatic(t *track, prog *asm.Program, s *sim.Sim, mem cdfg.Memory) error {
	var a *static.Analysis
	var err error
	t.do("static.analyze", func() { a, err = static.Analyze(prog) })
	if err != nil {
		return fmt.Errorf("static analysis rejected a verifier-clean program: %w", err)
	}
	ref := mem.Clone()
	id := t.begin("sim.run")
	res, err := s.RunScalar(ref)
	t.end(id)
	if err != nil {
		return fmt.Errorf("scalar reference run: %w", err)
	}
	t.do("static.check", func() { err = a.CheckRun(res) })
	if err != nil {
		return err
	}
	var stripped *asm.Program
	var rep *static.StripReport
	t.do("static.strip", func() { stripped, rep, err = static.Strip(prog, a) })
	if err != nil {
		return fmt.Errorf("strip: %w", err)
	}
	t.deadWords += rep.WordsSaved()
	var vres *verify.Result
	t.do("verify.check", func() { vres = verify.CheckProgram(stripped) })
	if !vres.OK() {
		t.verifyRejects++
		return fmt.Errorf("stripped program fails re-verification: %w", vres.Err())
	}
	var s2 *sim.Sim
	t.do("sim.new", func() { s2, err = sim.New(stripped) })
	if err != nil {
		return fmt.Errorf("sim of stripped program: %w", err)
	}
	got := mem.Clone()
	id = t.begin("sim.run")
	res2, err := s2.RunScalar(got)
	t.end(id)
	if err != nil {
		return fmt.Errorf("stripped program trapped where the original ran: %w", err)
	}
	var same bool
	t.do("oracle.compare", func() {
		same = res2.Cycles == res.Cycles-rep.CycleDelta(res.BlockExecs) &&
			res2.StallCycles == res.StallCycles &&
			reflect.DeepEqual(res2.BlockExecs, res.BlockExecs) &&
			reflect.DeepEqual(got, ref)
	})
	if !same {
		return errors.New("stripped run differs from the original")
	}
	return nil
}

// checkCache mirrors the oracle's cache differential: store the program
// cold, read it back through a fresh cache instance over the same
// directory (the disk tier and its verify gate), require identical bytes.
func (p *replayPass) checkCache(t *track, r *request, m *core.Mapping, prog *asm.Program) error {
	req := mapcache.Request{Graph: r.graph, Grid: arch.MustGrid(r.cell.Config), Opt: r.options()}
	compute := func() (mapcache.Computed, error) {
		return mapcache.Computed{Mapping: m, Program: prog, Seed: checkSeed, Backend: core.DefaultBackend().Name()}, nil
	}
	var cold, warm mapcache.Result
	var err error
	t.do("mapcache.store", func() {
		cold, err = mapcache.New(mapcache.Config{Dir: p.oracleDir}).GetOrStore(req, compute)
	})
	if err != nil {
		return fmt.Errorf("cache cold pass: %w", err)
	}
	t.cacheExpected++
	id := t.begin("mapcache.get")
	warm, err = mapcache.New(mapcache.Config{Dir: p.oracleDir}).GetOrStore(req, compute)
	t.end(id)
	t.spans[id].name = t.cacheSource(warm.Source, err)
	if err != nil {
		return fmt.Errorf("cache warm pass: %w", err)
	}
	var same bool
	t.do("oracle.compare", func() { same = bytes.Equal(cold.Image, warm.Image) })
	if !same {
		return fmt.Errorf("warm cache bitstream (source %s) is not byte-identical to the cold compile", warm.Source)
	}
	return nil
}
