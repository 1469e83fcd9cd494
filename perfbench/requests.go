package main

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/kernels"
	"repro/internal/oracle"
)

type kind int

const (
	kindCell  kind = iota // one (kernel, flow, config[, traversal]) evaluation cell
	kindCPU               // one kernel's or1k CPU baseline
	kindCheck             // one oracle check of a generated graph in one cell
)

// request is one unit of closed-loop load: a paper-evaluation cell, a
// CPU baseline, or an oracle check.
type request struct {
	name string
	kind kind

	kernel string
	flow   core.Flow
	config arch.ConfigName
	trav   cdfg.TraversalKind
	forced bool // Fig 5: traversal forced instead of the flow's default

	// noMapping marks a known zero bar: the mapper ends without a mapping
	// for this request. Any other request that ends unmapped fails a
	// check, so a change that makes the mapper give up early cannot read
	// as a speed-up.
	noMapping bool

	cell  oracle.Cell
	graph *cdfg.Graph // kindCheck: this request's private copy
	mem   cdfg.Memory
}

// options returns the mapper options the request is evaluated with:
// core.DefaultOptions, so results match EXPERIMENTS.md.
func (r *request) options() core.Options {
	if r.kind == kindCheck {
		opt := r.cell.Mode.Options()
		opt.Seed = checkSeed
		return opt
	}
	opt := core.DefaultOptions(r.flow)
	if r.forced {
		opt.Traversal = r.trav
		opt.ForceTraversal = true
	}
	return opt
}

// evaluate runs a kernel request through exp.Runner's public entry
// points, the way cgrabench does.
func (r *request) evaluate(run *exp.Runner) (*exp.Cell, *exp.CPUCell, error) {
	switch {
	case r.kind == kindCPU:
		c, err := run.CPU(r.kernel)
		return nil, c, err
	case r.forced:
		return run.RunTraversal(r.kernel, r.flow, r.config, r.trav), nil, nil
	default:
		return run.Run(r.kernel, r.flow, r.config), nil, nil
	}
}

// paperRequests lists the paper evaluation as exp.Runner.PrefetchAll
// enumerates it — the Fig 5 traversal pairs, the Figs 6–9 flow × config
// grid, the Fig 10/11 and Table II cells — deduplicated to its 105 unique
// cells, followed by the 7 CPU baselines.
func paperRequests() []request {
	var reqs []request
	seen := map[string]bool{}
	add := func(r request) {
		if !seen[r.name] {
			seen[r.name] = true
			r.noMapping = zeroBars[r.name]
			reqs = append(reqs, r)
		}
	}
	cell := func(kernel string, flow core.Flow, config arch.ConfigName) request {
		return request{
			name: fmt.Sprintf("%s/%s/%s", kernel, flowName(flow), config), kind: kindCell,
			kernel: kernel, flow: flow, config: config,
		}
	}
	configs := arch.ConfigNames()
	add(cell("MatM", core.FlowBasic, arch.HOM64))
	for _, k := range kernels.Names() {
		for _, trav := range []cdfg.TraversalKind{cdfg.TraverseForward, cdfg.TraverseWeighted} {
			r := cell(k, core.FlowBasic, arch.HOM64)
			r.name += "/" + travName(trav)
			r.trav, r.forced = trav, true
			add(r)
		}
	}
	for _, flow := range core.Flows() {
		for _, k := range kernels.Names() {
			if flow == core.FlowBasic {
				add(cell(k, flow, arch.HOM64))
				continue
			}
			for _, cfg := range configs {
				add(cell(k, flow, cfg))
			}
		}
	}
	for _, k := range kernels.Names() {
		add(request{name: "cpu/" + k, kind: kindCPU, kernel: k})
		add(cell(k, core.FlowBasic, arch.HOM64))
		add(cell(k, core.FlowCAB, arch.HET1))
		add(cell(k, core.FlowCAB, arch.HET2))
	}
	return reqs
}

// zeroBars are the paper-evaluation cells that end without a mapping
// (EXPERIMENTS.md, Figs 6–8). Failed mappings are never cached, so the
// warm workload leaves them out: it measures the cache-hit path, and
// paper-eval measures the failing search.
var zeroBars = map[string]bool{
	"MatM/ACMAP/HOM32": true, "MatM/ACMAP/HET1": true, "MatM/ACMAP/HET2": true,
	"NonSepFilter/ACMAP/HOM32": true, "NonSepFilter/ACMAP/HET1": true, "NonSepFilter/ACMAP/HET2": true,
	"FFT/ACMAP/HOM32":          true,
	"MatM/ECMAP/HOM32":         true,
	"NonSepFilter/ECMAP/HOM32": true, "NonSepFilter/ECMAP/HET1": true, "NonSepFilter/ECMAP/HET2": true,
	"FFT/ECMAP/HOM32":       true,
	"NonSepFilter/CAB/HET2": true,
}

// warmRequests is the paper evaluation minus its zero bars.
func warmRequests() []request {
	var out []request
	for _, r := range paperRequests() {
		if !r.noMapping {
			out = append(out, r)
		}
	}
	return out
}

// randomNoMapping are random-cdfg's checks that end without a mapping.
var randomNoMapping = map[string]bool{"g09/acmap/HET2": true, "g09/ecmap/HET2": true}

const (
	// randomGraphs is the size of random-cdfg's fixed graph population,
	// generated from graph seeds 1..randomGraphs.
	randomGraphs = 12
	// checkSeed is the mapper seed of every oracle check
	// (core.DefaultOptions' seed).
	checkSeed = 1
)

// randomRequests generates random-cdfg's population: each graph checked
// in all 20 cells of oracle.AllCells, every request holding its own copy
// of the graph and input memory so concurrent clients share nothing.
func randomRequests() []request {
	var reqs []request
	for i := 0; i < randomGraphs; i++ {
		g, mem := cdfg.Generate(rand.New(rand.NewSource(int64(1+i))), cdfg.DefaultGenConfig())
		for _, c := range oracle.AllCells() {
			name := fmt.Sprintf("g%02d/%s", i+1, c)
			reqs = append(reqs, request{
				name: name, kind: kindCheck, noMapping: randomNoMapping[name],
				cell: c, graph: g.Clone(), mem: mem.Clone(),
			})
		}
	}
	return reqs
}

func flowName(f core.Flow) string {
	switch f {
	case core.FlowBasic:
		return "basic"
	case core.FlowACMAP:
		return "ACMAP"
	case core.FlowECMAP:
		return "ECMAP"
	case core.FlowCAB:
		return "CAB"
	}
	return fmt.Sprintf("flow%d", int(f))
}

func travName(t cdfg.TraversalKind) string {
	if t == cdfg.TraverseForward {
		return "fwd"
	}
	return "weighted"
}
