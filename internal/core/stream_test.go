package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/kernels"
)

// walkBindSteps replays Map's block loop and calls check before every
// bind step with the live beam. Each block runs its first attempt only;
// the walk stops at the first block that attempt cannot map, since every
// later block depends on what it would have committed. It returns the
// number of bind steps checked.
func walkBindSteps(g *cdfg.Graph, grid *arch.Grid, opt Options, check func(cx *bbCtx, beam []*partial, n cdfg.NodeID)) int {
	opt.sanitize()
	ar := newMapperArena()
	nt := grid.NumTiles()
	used := make([]int, nt)
	consts := make([][]int32, nt)
	usedRegs := make([]uint16, nt)
	homes := map[string]SymLoc{}
	var st Stats
	rng := rand.New(rand.NewSource(opt.Seed))
	order := cdfg.Traversal(g, opt.Traversal)
	steps := 0
	for oi, bbid := range order {
		cx := newBlockCtx(grid, g.Blocks[bbid], &opt, ar, &st, homes, used, len(order)-oi-1,
			make([]int, nt), make([]int, nt), make([]int, nt))
		beam := []*partial{cx.initialPartial(consts, usedRegs)}
		nodes := cx.scheduleOrder()
		for i, n := range nodes {
			check(cx, beam, n)
			steps++
			next, err := cx.bindStep(beam, nodes, i, rng, &st)
			if err != nil {
				return steps
			}
			beam = next
		}
		done, err := cx.finalizeBeam(beam, &st)
		if err != nil {
			return steps
		}
		win := selectBest(done)
		bm := cx.commit(win)
		for t := range used {
			used[t] += bm.Words(arch.TileID(t))
			consts[t] = append(consts[t][:0], win.tiles[t].Consts...)
			usedRegs[t] |= win.tiles[t].EverUsed
		}
		for s, h := range win.newHomes {
			homes[s] = h
		}
	}
	return steps
}

// ranked is one candidate in emission order.
type ranked struct {
	key    float64
	parent *partial
	tile   arch.TileID
	cycle  int
}

// eagerOrder is the binder's former candidate path, kept as the test's
// reference: enumerate every site of every beam partial, route it in
// full, and sort the feasible candidates by (parent.cost + cost,
// enumeration position). It also asserts that the stream's lower bound
// of every feasible site is at most its exact key.
func eagerOrder(t *testing.T, cx *bbCtx, beam []*partial, n cdfg.NodeID, window int, tail bool) []ranked {
	t.Helper()
	nd := cx.block.Nodes[n]
	type entry struct {
		ranked
		pos int
	}
	var all []entry
	pos := 0
	for _, p := range beam {
		blacklist := cx.cabBlacklist(p)
		earliest := cx.earliestCycle(p, n)
		if tail && p.maxCycle > earliest {
			earliest = p.maxCycle
		}
		for cc := earliest; cc <= earliest+window; cc++ {
			for ti := 0; ti < cx.grid.NumTiles(); ti++ {
				tid := arch.TileID(ti)
				if blacklist&(1<<uint(ti)) != 0 ||
					(nd.Op.IsMem() && !cx.grid.Tile(tid).HasLSU) ||
					!cx.free(p, nil, tid, cc) ||
					(nd.Op.HasResult() && !cx.canProduce(p, nil, tid, cc)) {
					continue
				}
				pos++
				var c candidate
				if !cx.planCandidate(p, n, tid, cc, blacklist, &c) {
					continue
				}
				key := p.cost + c.cost
				bound, ok := cx.costBound(p, n, tid, cc)
				if !ok {
					t.Fatalf("block %q node n%d at t%d c%d: bound refutes a feasible site (exact key %v)",
						cx.block.Name, n, tid, cc, key)
				}
				if bound = p.cost + bound; bound > key {
					t.Fatalf("block %q node n%d at t%d c%d: bound %v exceeds exact key %v",
						cx.block.Name, n, tid, cc, bound, key)
				}
				all = append(all, entry{ranked{key, p, tid, cc}, pos})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].key != all[j].key {
			return all[i].key < all[j].key
		}
		return all[i].pos < all[j].pos
	})
	out := make([]ranked, len(all))
	for i, e := range all {
		out[i] = e.ranked
	}
	return out
}

// checkStreamStep drains the candidate stream for one bind step and
// compares its emission order with the eager order, widening the slack
// window exactly like bindStep while no candidate exists.
func checkStreamStep(t *testing.T, cx *bbCtx, beam []*partial, n cdfg.NodeID) {
	t.Helper()
	window, tail := cx.opt.SlackWindow, false
	for {
		want := eagerOrder(t, cx, beam, n, window, tail)
		cs := cx.openStream(n)
		for _, p := range beam {
			cs.addSites(p, window, tail)
		}
		var got []ranked
		for ci := cs.next(); ci >= 0; ci = cs.next() {
			c := &cs.cands[ci]
			got = append(got, ranked{c.parent.cost + c.cost, c.parent, c.tile, c.cycle})
		}
		if len(got) != len(want) {
			t.Fatalf("block %q node n%d: stream emitted %d candidates, eager order has %d",
				cx.block.Name, n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("block %q node n%d: emission %d is %+v, eager order has %+v",
					cx.block.Name, n, i, got[i], want[i])
			}
		}
		if len(want) > 0 {
			return
		}
		if window >= cx.opt.MaxSlack {
			if tail {
				return
			}
			tail, window = true, cx.opt.SlackWindow
			continue
		}
		window = min(window*2, cx.opt.MaxSlack)
	}
}

// fuzzGraphSeeds loads the seed corpus of FuzzGraphEndToEnd: the generated
// graphs it adds, the oracle's minimized reproducers, and the checked-in
// corpus entries.
func fuzzGraphSeeds(t *testing.T) []*cdfg.Graph {
	t.Helper()
	var gs []*cdfg.Graph
	for s := int64(0); s < 3; s++ {
		g, _ := cdfg.Generate(rand.New(rand.NewSource(s)), cdfg.DefaultGenConfig())
		gs = append(gs, g)
	}
	parse := func(path string, text []byte) {
		g, err := cdfg.UnmarshalText(text)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		gs = append(gs, g)
	}
	repros, _ := filepath.Glob(filepath.Join("..", "oracle", "testdata", "repro", "*.repro"))
	for _, path := range repros {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Drop the reproducer directives; the rest is the graph text.
		var graph strings.Builder
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) > 0 && (f[0] == "mem" || f[0] == "memval" || f[0] == "backends") {
				continue
			}
			graph.WriteString(line + "\n")
		}
		parse(path, []byte(graph.String()))
	}
	corpus, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzGraphEndToEnd", "*"))
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a go fuzz corpus entry", path)
		}
		text, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		parse(path, []byte(text))
	}
	if len(gs) < 3+len(repros)+len(corpus) {
		t.Fatalf("loaded %d seed graphs", len(gs))
	}
	return gs
}

// TestStreamMatchesEagerOrder is the soundness differential for the
// best-first candidate stream: at every bind step of kernels × flows ×
// {HOM64, HET2}, of the FuzzGraphEndToEnd seed corpus and of a few
// option variants, the stream must emit exactly the order the eager
// enumerate-route-sort binder produced, and the lower bound of every
// feasible site must not exceed its exact cost.
func TestStreamMatchesEagerOrder(t *testing.T) {
	type input struct {
		name string
		g    *cdfg.Graph
	}
	var inputs []input
	for _, k := range kernels.All() {
		inputs = append(inputs, input{k.Name, k.Build()})
	}
	if testing.Short() {
		inputs = inputs[:2]
	}
	for _, g := range fuzzGraphSeeds(t) {
		inputs = append(inputs, input{"seed/" + g.Name, g})
	}
	steps := 0
	for _, in := range inputs {
		for _, cfg := range []arch.ConfigName{arch.HOM64, arch.HET2} {
			grid := arch.MustGrid(cfg)
			for _, flow := range Flows() {
				t.Run(in.name+"/"+string(cfg)+"/"+flow.String(), func(t *testing.T) {
					steps += walkBindSteps(in.g, grid, DefaultOptions(flow), func(cx *bbCtx, beam []*partial, n cdfg.NodeID) {
						checkStreamStep(t, cx, beam, n)
					})
				})
			}
		}
	}
	// The bound's option-dependent terms: energy-aware placement, no
	// recompute, the shortest output hold.
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"energy", func(o *Options) { o.EnergyAware = true }},
		{"norecompute", func(o *Options) { o.Recompute = false }},
		{"hold1", func(o *Options) { o.MaxHold = 1 }},
	}
	for _, v := range variants {
		for _, in := range inputs[:2] {
			for _, flow := range []Flow{FlowBasic, FlowCAB} {
				t.Run(in.name+"/HET2/"+flow.String()+"/"+v.name, func(t *testing.T) {
					opt := DefaultOptions(flow)
					v.set(&opt)
					steps += walkBindSteps(in.g, arch.MustGrid(arch.HET2), opt, func(cx *bbCtx, beam []*partial, n cdfg.NodeID) {
						checkStreamStep(t, cx, beam, n)
					})
				})
			}
		}
	}
	if steps == 0 {
		t.Fatal("no bind step checked")
	}
}

// TestStreamRoutesFewerSites pins the point of the stream on a kernel the
// old binder routed in full: most sites are never routed.
func TestStreamRoutesFewerSites(t *testing.T) {
	k, err := kernels.ByName("MatM")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(k.Build(), arch.MustGrid(arch.HOM32), DefaultOptions(FlowCAB))
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats; st.Routed <= 0 || 2*st.Routed > st.Sites {
		t.Fatalf("routed %d of %d sites; want more than zero and at most half", st.Routed, st.Sites)
	}
}

func TestMemoKeyPacking(t *testing.T) {
	seen := map[uint64]bool{}
	for _, epoch := range []uint32{0, 1, 1<<32 - 1} {
		for _, v := range []cdfg.NodeID{0, 1, 1<<12 - 1} {
			for _, tc := range []arch.TileID{0, 1, 1<<6 - 1} {
				for _, cc := range []int{0, 1, 1<<12 - 1} {
					for _, flags := range []uint8{memoNilOverlay, memoClaimNoProd, memoClaimProduce} {
						k, ok := memoKey(epoch, v, tc, cc, flags)
						if !ok {
							t.Fatalf("in-range key (%d,%d,%d,%d,%d) rejected", epoch, v, tc, cc, flags)
						}
						if seen[k] {
							t.Fatalf("key (%d,%d,%d,%d,%d) collides", epoch, v, tc, cc, flags)
						}
						seen[k] = true
					}
				}
			}
		}
	}
	for _, c := range []struct {
		v  cdfg.NodeID
		tc arch.TileID
		cc int
	}{{1 << 12, 0, 0}, {0, 1 << 6, 0}, {0, 0, 1 << 12}, {0, 0, -1}, {-1, 0, 0}, {0, -1, 0}} {
		if _, ok := memoKey(7, c.v, c.tc, c.cc, memoClaimProduce); ok {
			t.Errorf("out-of-range key %+v accepted", c)
		}
	}
	if _, ok := memoKey(7, 0, 0, 0, 1<<2); ok {
		t.Error("out-of-range flags accepted")
	}
}

// samePlan compares the observable parts of two routing plans.
func samePlan(a, b *routePlan) bool {
	return a.Src == b.Src && a.Cost == b.Cost && a.ValueLoc == b.ValueLoc &&
		len(a.Moves) == len(b.Moves) && len(a.Holds) == len(b.Holds) &&
		len(a.Consts) == len(b.Consts) && (a.Retro == nil) == (b.Retro == nil) &&
		(a.Recomp == nil) == (b.Recomp == nil)
}

// TestMemoOverflowBypass checks that a routing search whose node, tile or
// cycle does not fit the packed memo key skips the memo and returns the
// same plan as the uncached search.
func TestMemoOverflowBypass(t *testing.T) {
	// Cycle overflow on live kernel state: route every operand of the first
	// few bind steps to a cycle past the key's 12 bits.
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	walkBindSteps(k.Build(), arch.MustGrid(arch.HOM64), DefaultOptions(FlowCAB), func(cx *bbCtx, beam []*partial, n cdfg.NodeID) {
		if checked > 200 {
			return
		}
		p := beam[0]
		for _, a := range cx.block.Nodes[n].Args {
			if len(p.locs[a]) == 0 {
				continue
			}
			for ti := 0; ti < cx.grid.NumTiles(); ti++ {
				cc := 1<<12 + ti
				before := len(cx.arena.memo)
				var viaMemo, direct routePlan
				ok1 := cx.planOperandMemo(p, nil, memoNilOverlay, a, arch.TileID(ti), cc, 0, &viaMemo)
				ok2 := cx.planOperand(p, nil, a, arch.TileID(ti), cc, 0, &direct)
				if ok1 != ok2 || (ok1 && !samePlan(&viaMemo, &direct)) {
					t.Fatalf("n%d to t%d c%d: memo path (%v, %+v) differs from direct (%v, %+v)",
						a, ti, cc, ok1, viaMemo, ok2, direct)
				}
				if len(cx.arena.memo) != before {
					t.Fatalf("out-of-range cycle %d entered the memo", cc)
				}
				checked++
			}
		}
	})
	if checked == 0 {
		t.Fatal("no operand search checked")
	}

	// Node and tile overflow need a block past 4096 nodes and a grid past
	// 64 tiles: a synthetic block of constants on a 9x8 torus.
	const rows, cols, nodes = 9, 8, 1<<12 + 4
	grid := &arch.Grid{Name: "9x8", Rows: rows, Cols: cols, RRFSize: 8}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			grid.Tiles = append(grid.Tiles, arch.Tile{ID: arch.TileID(r*cols + c), Row: r, Col: c, CMWords: 64})
		}
	}
	block := &cdfg.BasicBlock{Name: "consts"}
	for i := 0; i < nodes; i++ {
		block.Nodes = append(block.Nodes, &cdfg.Node{ID: cdfg.NodeID(i), Op: cdfg.OpConst, Val: int32(i)})
	}
	opt := DefaultOptions(FlowBasic)
	ar := newMapperArena()
	nt := grid.NumTiles()
	cx := newBlockCtx(grid, block, &opt, ar, nil, map[string]SymLoc{}, make([]int, nt), 0,
		make([]int, nt), make([]int, nt), make([]int, nt))
	p := ar.getPartial()
	ar.resetPartial(p, nt, nodes, grid.RRFSize)
	for _, c := range []struct {
		v    cdfg.NodeID
		tc   arch.TileID
		cc   int
		memo bool
	}{
		{5, 3, 2, true}, // in range: memoized
		{nodes - 1, 3, 2, false},
		{5, arch.TileID(nt - 1), 2, false},
		{5, 3, 1 << 13, false},
	} {
		before := len(ar.memo)
		var viaMemo, direct routePlan
		ok1 := cx.planOperandMemo(p, nil, memoNilOverlay, c.v, c.tc, c.cc, 0, &viaMemo)
		ok2 := cx.planOperand(p, nil, c.v, c.tc, c.cc, 0, &direct)
		if !ok1 || !ok2 || !samePlan(&viaMemo, &direct) {
			t.Fatalf("%+v: memo path (%v, %+v) differs from direct (%v, %+v)", c, ok1, viaMemo, ok2, direct)
		}
		if grew := len(ar.memo) > before; grew != c.memo {
			t.Fatalf("%+v: memo grew = %v, want %v", c, grew, c.memo)
		}
	}
}
