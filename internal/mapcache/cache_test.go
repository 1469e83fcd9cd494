package mapcache_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/obs"
	"repro/internal/verify"
)

func kernelGraph(t *testing.T, name string) *cdfg.Graph {
	t.Helper()
	for _, k := range kernels.All() {
		if k.Name == name {
			return k.Build()
		}
	}
	t.Fatalf("no kernel %q", name)
	return nil
}

func mapCompute(t *testing.T, g *cdfg.Graph, grid *arch.Grid, opt core.Options, calls *atomic.Int64) func() (mapcache.Computed, error) {
	t.Helper()
	return func() (mapcache.Computed, error) {
		if calls != nil {
			calls.Add(1)
		}
		m, err := core.Map(g, grid, opt)
		if err != nil {
			return mapcache.Computed{}, err
		}
		return mapcache.Computed{Mapping: m, Seed: opt.Seed, Backend: "heuristic"}, nil
	}
}

// TestCacheColdWarm: the second identical request is a memory hit with a
// byte-identical image and the same metadata, and the compute callback runs
// exactly once.
func TestCacheColdWarm(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c := mapcache.New(mapcache.Config{Obs: rec})
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64

	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	cold, err := c.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hit || cold.Source != "compute" {
		t.Fatalf("cold request reported hit=%v source=%q", cold.Hit, cold.Source)
	}
	warm, err := c.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit || warm.Source != "memory" {
		t.Fatalf("warm request reported hit=%v source=%q", warm.Hit, warm.Source)
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	if !bytes.Equal(cold.Image, warm.Image) {
		t.Fatal("warm image differs from cold image")
	}
	if cold.Meta.Words != warm.Meta.Words || cold.Meta.Words == 0 {
		t.Fatalf("meta mismatch: cold %d words, warm %d", cold.Meta.Words, warm.Meta.Words)
	}
	if r := verify.CheckProgram(warm.Program); r.Err() != nil {
		t.Fatalf("warm program fails verification: %v", r.Err())
	}
	if got := rec.Counter("mapcache.hit").Value(); got != 1 {
		t.Fatalf("mapcache.hit = %d, want 1", got)
	}
	if got := rec.Counter("mapcache.miss").Value(); got != 1 {
		t.Fatalf("mapcache.miss = %d, want 1", got)
	}
}

// TestCacheRelabeledIsFreshCompile: a relabeled graph (shuffled blocks,
// renumbered nodes, swapped commutative operands, renames) has a different
// text from the original, so it misses the original's entry, runs compute
// once, and serves exactly the image a fresh compile of the relabeled graph
// produces in a fresh cache. A hit is never a different graph's compile.
func TestCacheRelabeledIsFreshCompile(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	c := mapcache.New(mapcache.Config{})
	opt := core.DefaultOptions(core.FlowCAB)

	// Full kernels with branches and memory traffic plus generated graphs
	// with larger block counts (mapping every kernel under FlowCAB takes
	// minutes).
	graphs := map[string]*cdfg.Graph{
		"FIR": kernelGraph(t, "FIR"), "FFT": kernelGraph(t, "FFT"), "DCFilter": kernelGraph(t, "DCFilter"),
	}
	for _, seed := range []int64{1, 4, 6} {
		g, _ := cdfg.Generate(rand.New(rand.NewSource(seed)), cdfg.DefaultGenConfig())
		graphs[fmt.Sprintf("gen-%d", seed)] = g
	}
	for _, name := range []string{"FIR", "FFT", "DCFilter", "gen-1", "gen-4", "gen-6"} {
		g := graphs[name]
		t.Run(name, func(t *testing.T) {
			req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
			if _, err := c.GetOrStore(req, mapCompute(t, g, grid, opt, nil)); err != nil {
				t.Skipf("kernel does not map on this grid: %v", err)
			}
			pg := permuteGraph(t, g, rand.New(rand.NewSource(7)))
			preq := mapcache.Request{Graph: pg, Grid: grid, Opt: opt}
			var calls atomic.Int64
			got, err := c.GetOrStore(preq, mapCompute(t, pg, grid, opt, &calls))
			if err != nil {
				t.Fatal(err)
			}
			if got.Hit || got.Source != "compute" {
				t.Fatalf("relabeled graph reported hit=%v source=%q, want a compute miss", got.Hit, got.Source)
			}
			if calls.Load() != 1 {
				t.Fatalf("compute ran %d times, want 1", calls.Load())
			}
			fresh, err := mapcache.New(mapcache.Config{}).GetOrStore(preq, mapCompute(t, pg, grid, opt, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Image, fresh.Image) {
				t.Fatalf("served image (%d bytes) differs from a fresh compile of the relabeled graph (%d bytes)",
					len(got.Image), len(fresh.Image))
			}
		})
	}
}

// permuteGraph returns an isomorphic, semantically identical relabeling of
// g: blocks are shuffled (IDs, order, names), each block's nodes are
// renumbered along a random order that respects dataflow and the
// interpreter's memory-op ordering (stores are barriers; loads between two
// stores may swap), commutative operands are randomly swapped, and the
// graph is renamed.
func permuteGraph(t *testing.T, g *cdfg.Graph, rng *rand.Rand) *cdfg.Graph {
	t.Helper()
	ng := g.Clone()
	ng.Name = fmt.Sprintf("perm-%d", rng.Int63())

	// Random block permutation.
	bp := rng.Perm(len(ng.Blocks)) // bp[old] = new position
	blocks := make([]*cdfg.BasicBlock, len(ng.Blocks))
	for old, b := range ng.Blocks {
		b.ID = cdfg.BBID(bp[old])
		b.Name = fmt.Sprintf("blk_%d_%d", bp[old], rng.Intn(1000))
		for i, s := range b.Succs {
			b.Succs[i] = cdfg.BBID(bp[s])
		}
		blocks[bp[old]] = b
	}
	ng.Blocks = blocks
	ng.Entry = cdfg.BBID(bp[ng.Entry])

	for _, b := range ng.Blocks {
		permuteBlockNodes(b, rng)
	}
	if err := cdfg.Verify(ng); err != nil {
		t.Fatalf("permuted graph is invalid (test bug): %v", err)
	}
	return ng
}

func permuteBlockNodes(b *cdfg.BasicBlock, rng *rand.Rand) {
	n := len(b.Nodes)
	if n == 0 {
		return
	}
	// Dependencies: args plus the memory chain (load→prev store,
	// store→prev store and loads since).
	deps := make([][]int, n)
	for i, nd := range b.Nodes {
		for _, a := range nd.Args {
			deps[i] = append(deps[i], int(a))
		}
	}
	lastStore := -1
	var loads []int
	for i, nd := range b.Nodes {
		switch nd.Op {
		case cdfg.OpLoad:
			if lastStore >= 0 {
				deps[i] = append(deps[i], lastStore)
			}
			loads = append(loads, i)
		case cdfg.OpStore:
			if lastStore >= 0 {
				deps[i] = append(deps[i], lastStore)
			}
			deps[i] = append(deps[i], loads...)
			lastStore = i
			loads = loads[:0]
		}
	}
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i, ds := range deps {
		seen := map[int]bool{}
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				indeg[i]++
				succs[d] = append(succs[d], i)
			}
		}
	}
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n) // new position -> old id
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		picked := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, picked)
		for _, s := range succs[picked] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	newID := make([]cdfg.NodeID, n)
	for pos, old := range order {
		newID[old] = cdfg.NodeID(pos)
	}
	nodes := make([]*cdfg.Node, n)
	for pos, old := range order {
		nd := b.Nodes[old]
		nd.ID = cdfg.NodeID(pos)
		for ai, a := range nd.Args {
			nd.Args[ai] = newID[a]
		}
		if nd.Op.IsCommutative() && len(nd.Args) == 2 && rng.Intn(2) == 1 {
			nd.Args[0], nd.Args[1] = nd.Args[1], nd.Args[0]
		}
		nodes[pos] = nd
	}
	b.Nodes = nodes
	for s, id := range b.LiveOut {
		b.LiveOut[s] = newID[id]
	}
	if b.Branch != cdfg.None {
		b.Branch = newID[b.Branch]
	}
}

// TestCacheKeySeparation: changing any key ingredient — options, seeds,
// backends, objective — misses instead of returning the old entry.
func TestCacheKeySeparation(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	c := mapcache.New(mapcache.Config{})
	var calls atomic.Int64

	base := mapcache.Request{Graph: g, Grid: grid, Opt: core.DefaultOptions(core.FlowCAB)}
	seeded := core.DefaultOptions(core.FlowCAB)
	seeded.Seed = 3
	variants := []mapcache.Request{
		base,
		{Graph: g, Grid: grid, Opt: seeded},
		{Graph: g, Grid: grid, Opt: base.Opt, Seeds: []int64{0, 1}},
		{Graph: g, Grid: grid, Opt: base.Opt, Backends: []string{"exact"}},
		{Graph: g, Grid: grid, Opt: base.Opt, Objective: "power"},
	}
	for i, req := range variants {
		if _, err := c.GetOrStore(req, mapCompute(t, g, grid, req.Opt, &calls)); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	if calls.Load() != int64(len(variants)) {
		t.Fatalf("compute ran %d times for %d distinct keys", calls.Load(), len(variants))
	}
	if c.Len() != len(variants) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), len(variants))
	}
}

// TestCacheProfiledBypass: a request carrying a runtime profile cannot be
// keyed soundly and must bypass the cache entirely.
func TestCacheProfiledBypass(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c := mapcache.New(mapcache.Config{Obs: rec})
	opt := core.DefaultOptions(core.FlowCAB)
	opt.Profile = map[cdfg.BBID]int{0: 1}
	var calls atomic.Int64
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	for i := 0; i < 2; i++ {
		res, err := c.GetOrStore(req, mapCompute(t, g, grid, core.Options{}, &calls))
		if err != nil {
			t.Fatal(err)
		}
		if res.Hit || res.Source != "bypass" {
			t.Fatalf("call %d: hit=%v source=%q, want bypass", i, res.Hit, res.Source)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2 (no caching)", calls.Load())
	}
	if got := rec.Counter("mapcache.bypass").Value(); got != 2 {
		t.Fatalf("mapcache.bypass = %d, want 2", got)
	}
	if c.Len() != 0 {
		t.Fatalf("bypass stored %d entries", c.Len())
	}
}

// TestCacheMalformedGraphBypass: graphs too malformed to key (nil, no
// blocks, entry out of range) bypass the cache instead of panicking.
func TestCacheMalformedGraphBypass(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	opt := core.DefaultOptions(core.FlowCAB)
	m, err := core.Map(g, grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	compute := func() (mapcache.Computed, error) { return mapcache.Computed{Mapping: m}, nil }
	badEntry := g.Clone()
	badEntry.Entry = cdfg.BBID(len(badEntry.Blocks))
	c := mapcache.New(mapcache.Config{Dir: t.TempDir()})
	for name, bad := range map[string]*cdfg.Graph{"nil": nil, "empty": {}, "entry": badEntry} {
		res, err := c.GetOrStore(mapcache.Request{Graph: bad, Grid: grid, Opt: opt}, compute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Hit || res.Source != "bypass" {
			t.Fatalf("%s: hit=%v source=%q, want bypass", name, res.Hit, res.Source)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("bypass stored %d entries", c.Len())
	}
}

// TestCacheLRUEviction: capacity is enforced with the least recently used
// entry evicted first.
func TestCacheLRUEviction(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	// Two slots: the third distinct key must evict the first.
	c := mapcache.New(mapcache.Config{Capacity: 2, Obs: rec})
	var calls atomic.Int64
	var reqs []mapcache.Request
	for seed := int64(1); seed <= 3; seed++ {
		o := core.DefaultOptions(core.FlowCAB)
		o.Seed = seed
		reqs = append(reqs, mapcache.Request{Graph: g, Grid: grid, Opt: o})
	}
	for _, req := range reqs {
		if _, err := c.GetOrStore(req, mapCompute(t, g, grid, req.Opt, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries after eviction, want 2", c.Len())
	}
	if got := rec.Counter("mapcache.evict").Value(); got != 1 {
		t.Fatalf("mapcache.evict = %d, want 1", got)
	}
	// Seed 1 was evicted: requesting it again recomputes.
	before := calls.Load()
	if _, err := c.GetOrStore(reqs[0], mapCompute(t, g, grid, reqs[0].Opt, &calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatal("evicted entry was served from cache")
	}
}

// TestCacheConcurrentIdentical: concurrent identical requests all succeed
// and every caller gets a byte-identical image. Run under -race, this
// checks the memory tier's locking; how many of the callers compute is not
// part of the contract.
func TestCacheConcurrentIdentical(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FFT")
	c := mapcache.New(mapcache.Config{Obs: obs.NewRecorder(obs.NewRegistry(), nil)})
	opt := core.DefaultOptions(core.FlowCAB)
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}

	const workers = 8
	results := make([]mapcache.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.GetOrStore(req, mapCompute(t, g, grid, opt, nil))
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i].Image, results[0].Image) {
			t.Fatalf("worker %d image differs", i)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries after identical requests, want 1", c.Len())
	}
}

// TestCacheDiskRoundTrip: a fresh Cache over the same directory serves the
// entry from disk — re-verified — with a byte-identical image.
func TestCacheDiskRoundTrip(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	dir := t.TempDir()
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64

	c1 := mapcache.New(mapcache.Config{Dir: dir})
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	cold, err := c1.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	files, err := mapcache.EntryFiles(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("EntryFiles = %v, %v; want exactly one entry", files, err)
	}

	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c2 := mapcache.New(mapcache.Config{Dir: dir, Obs: rec})
	warm, err := c2.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit || warm.Source != "disk" {
		t.Fatalf("second process reported hit=%v source=%q, want disk hit", warm.Hit, warm.Source)
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times across processes, want 1", calls.Load())
	}
	if !bytes.Equal(cold.Image, warm.Image) {
		t.Fatal("disk round-trip changed the image")
	}
	if got := rec.Counter("mapcache.disk_hit").Value(); got != 1 {
		t.Fatalf("mapcache.disk_hit = %d, want 1", got)
	}
	// The disk hit is promoted to memory: a third request stays in-process.
	third, err := c2.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if third.Source != "memory" {
		t.Fatalf("post-promotion source = %q, want memory", third.Source)
	}
}

// TestCacheDiskCorruption: flipping raw bytes on disk breaks the envelope
// checksum; the entry is rejected and recomputed, never served.
func TestCacheDiskCorruption(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	dir := t.TempDir()
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64

	c1 := mapcache.New(mapcache.Config{Dir: dir})
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	if _, err := c1.GetOrStore(req, mapCompute(t, g, grid, opt, &calls)); err != nil {
		t.Fatal(err)
	}
	files, _ := mapcache.EntryFiles(dir)
	if len(files) != 1 {
		t.Fatalf("want one entry file, got %d", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c2 := mapcache.New(mapcache.Config{Dir: dir, Obs: rec})
	res, err := c2.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("corrupted disk entry was served as a hit")
	}
	if got := rec.Counter("mapcache.disk_reject").Value(); got != 1 {
		t.Fatalf("mapcache.disk_reject = %d, want 1", got)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2 (recompute after corruption)", calls.Load())
	}
}

// TestCacheDiskPoisonVerifyGate: RewriteEntry produces a checksummed but
// wrong entry — the digest passes, so only the verify gate stands between
// the poison and the caller. It must fire.
func TestCacheDiskPoisonVerifyGate(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "DCFilter")
	dir := t.TempDir()
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64

	c1 := mapcache.New(mapcache.Config{Dir: dir})
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	if _, err := c1.GetOrStore(req, mapCompute(t, g, grid, opt, &calls)); err != nil {
		t.Fatal(err)
	}
	files, _ := mapcache.EntryFiles(dir)
	if len(files) != 1 {
		t.Fatalf("want one entry file, got %d", len(files))
	}
	// Zero every instruction word: the image still parses (header, lengths
	// and checksum all valid) but the program no longer implements g.
	if err := mapcache.RewriteEntry(files[0], func(image []byte) []byte {
		out := append([]byte(nil), image...)
		for i := len(out) - 8; i >= 16; i -= 8 {
			for j := 0; j < 8; j++ {
				out[i+j] = 0
			}
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c2 := mapcache.New(mapcache.Config{Dir: dir, Obs: rec})
	res, err := c2.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("poisoned disk entry passed the verify gate")
	}
	if got := rec.Counter("mapcache.disk_reject").Value(); got != 1 {
		t.Fatalf("mapcache.disk_reject = %d, want 1", got)
	}
	if r := verify.CheckProgram(res.Program); r.Err() != nil {
		t.Fatalf("recomputed program fails verification: %v", r.Err())
	}
}

// TestCacheDiskWrongKey: a valid entry file renamed onto another key's path
// fails the embedded-key check and is rejected.
func TestCacheDiskWrongKey(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	gA := kernelGraph(t, "FIR")
	gB := kernelGraph(t, "FFT")
	dir := t.TempDir()
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64

	c1 := mapcache.New(mapcache.Config{Dir: dir})
	if _, err := c1.GetOrStore(mapcache.Request{Graph: gA, Grid: grid, Opt: opt}, mapCompute(t, gA, grid, opt, &calls)); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.GetOrStore(mapcache.Request{Graph: gB, Grid: grid, Opt: opt}, mapCompute(t, gB, grid, opt, &calls)); err != nil {
		t.Fatal(err)
	}
	files, _ := mapcache.EntryFiles(dir)
	if len(files) != 2 {
		t.Fatalf("want two entry files, got %d", len(files))
	}
	// Swap the two files: each now sits at the other's content address.
	tmp := filepath.Join(dir, "swap")
	if err := os.Rename(files[0], tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(files[1], files[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, files[1]); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c2 := mapcache.New(mapcache.Config{Dir: dir, Obs: rec})
	res, err := c2.GetOrStore(mapcache.Request{Graph: gA, Grid: grid, Opt: opt}, mapCompute(t, gA, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("entry with mismatched embedded key was served")
	}
	if got := rec.Counter("mapcache.disk_reject").Value(); got != 1 {
		t.Fatalf("mapcache.disk_reject = %d, want 1", got)
	}
}
