package core

import (
	"math"

	"repro/internal/arch"
	"repro/internal/cdfg"
)

// This file holds the binder's best-first candidate stream. A bind step
// used to route every site (partial × tile × cycle) in full, sort the
// routed candidates by accumulated cost and realize at most CandidateCap
// of them; most of the routing was thrown away. The stream instead gives
// every site an admissible lower bound on its accumulated cost, routes
// sites in bound order, and emits a routed candidate as soon as no
// unrouted site can precede it. The emitted order is exactly the old
// (cost, enumeration position) sort order, so mappings are unchanged.
//
// Why the bound is admissible (DESIGN.md §10 has the long form): costBound
// adds the same terms in the same order as planCandidate, each one exact
// (computed by the helpers both share), lower, or dropped, and all of them
// non-negative. IEEE-754 addition is monotone in each operand (x <= x' and
// y <= y' imply fl(x+y) <= fl(x'+y')), and dropping a non-negative term
// keeps a partial sum at or below the exact one, so the bound never
// exceeds the exact key bit for bit. Each product term is rounded through
// an explicit float64 conversion so no platform can fuse it into a
// multiply-add on one path only. A site whose operand provably cannot be
// delivered is never queued: it could never have been emitted.

// site is one binding position that passed the cheap filters.
type site struct {
	parent *partial
	tile   arch.TileID
	cycle  int
}

// keyed is an entry of the stream's two min-heaps. In the site queue, key
// is parent.cost + costBound, admissible for the routed key; in the ready
// heap it is the exact eager sort key parent.cost + cand.cost. pos is the
// site's index in enumeration order, the eager order's tie-break; idx is
// the candidate's index in candStream.cands (ready heap only).
type keyed struct {
	key      float64
	pos, idx int32
}

func (a keyed) before(b keyed) bool { return a.key < b.key || (a.key == b.key && a.pos < b.pos) }

// candStream emits one bind step's candidates in ascending (parent.cost +
// cost, enumeration position) order, routing only what that order needs.
// It lives in the arena and is reset per bind step; its candidates' plans
// live in the arena's plan chunks, so they die at the next bindReset.
type candStream struct {
	cx     *bbCtx
	node   cdfg.NodeID
	sites  []site      // enumeration order
	queue  []keyed     // unrouted sites, a min-heap once heaped
	ready  []keyed     // routed feasible candidates awaiting emission
	cands  []candidate // every feasible candidate routed so far
	heaped bool
}

// openStream resets the arena's stream for binding node n.
func (cx *bbCtx) openStream(n cdfg.NodeID) *candStream {
	s := &cx.arena.stream
	s.cx, s.node = cx, n
	s.reset()
	return s
}

// reset drops every site and candidate (a widened window re-enumerates
// from scratch, like the eager binder did).
func (s *candStream) reset() {
	s.sites, s.queue, s.ready, s.cands = s.sites[:0], s.queue[:0], s.ready[:0], s.cands[:0]
	s.heaped = false
}

// addSites enumerates the sites of the stream's node under partial p
// within [earliest, earliest+window]: every (tile, cycle) that passes the
// CAB blacklist, the LSU requirement and the slot filters. With tail set,
// the window is anchored at the end of the partial's current schedule,
// where slots are free on every tile — the last-resort reroute region.
func (s *candStream) addSites(p *partial, window int, tail bool) {
	cx := s.cx
	nd := cx.block.Nodes[s.node]
	blacklist := cx.cabBlacklist(p)
	earliest := cx.earliestCycle(p, s.node)
	if tail && p.maxCycle > earliest {
		earliest = p.maxCycle
	}
	produces := nd.Op.HasResult()
	nt := cx.grid.NumTiles()
	found := 0
	for cc := earliest; cc <= earliest+window; cc++ {
		for t := 0; t < nt; t++ {
			tid := arch.TileID(t)
			if blacklist&(1<<uint(t)) != 0 {
				continue
			}
			if nd.Op.IsMem() && !cx.grid.Tile(tid).HasLSU {
				continue
			}
			if !cx.free(p, nil, tid, cc) {
				continue
			}
			if produces && !cx.canProduce(p, nil, tid, cc) {
				continue
			}
			// Count the site before the bound can prove it infeasible:
			// Sites is what the eager binder would have routed.
			found++
			bound, ok := cx.costBound(p, s.node, tid, cc)
			if !ok {
				continue
			}
			s.queue = append(s.queue, keyed{key: p.cost + bound, pos: int32(len(s.sites))})
			s.sites = append(s.sites, site{parent: p, tile: tid, cycle: cc})
		}
	}
	if cx.stats != nil {
		cx.stats.Sites += found
	}
}

// more reports whether the stream still has a candidate to emit, routing
// sites until the cheapest routed candidate provably precedes every
// unrouted site or no site is left.
func (s *candStream) more() bool {
	if !s.heaped {
		heapInit(s.queue)
		s.heaped = true
	}
	// A routed candidate may go once it precedes the queue head: every
	// unrouted site's exact key is at least its bound, and positions are
	// unique.
	for len(s.queue) > 0 && (len(s.ready) == 0 || !s.ready[0].before(s.queue[0])) {
		var q keyed
		s.queue, q = heapPop(s.queue)
		s.route(q.pos)
	}
	return len(s.ready) > 0
}

// route plans site pos and queues it when feasible.
func (s *candStream) route(pos int32) {
	cx := s.cx
	if cx.stats != nil {
		cx.stats.Routed++
	}
	st := &s.sites[pos]
	s.cands = append(s.cands, candidate{})
	c := &s.cands[len(s.cands)-1]
	// The blacklist is cached on the parent, which no bind step mutates.
	if !cx.planCandidate(st.parent, s.node, st.tile, st.cycle, cx.cabBlacklist(st.parent), c) {
		s.cands = s.cands[:len(s.cands)-1]
		return
	}
	s.ready = heapPush(s.ready, keyed{key: st.parent.cost + c.cost, pos: pos, idx: int32(len(s.cands) - 1)})
}

// next pops the next candidate in order and returns its index in
// s.cands, or -1 once the stream is exhausted.
func (s *candStream) next() int32 {
	if !s.more() {
		return -1
	}
	var r keyed
	s.ready, r = heapPop(s.ready)
	return r.idx
}

// operandBound is an admissible lower bound on the routing cost of
// delivering operand a to a consumer at (t, cc); ok is false when no plan
// can exist. Constants and symbol pins cost at least zero. From a location
// at torus distance d, every plan is a chain of at least d-1 moves (each
// hop and the consumer's read are neighbor transfers; holds and register
// allocations only add cost), and the moves run on consecutive cycles
// after the value exists, so no plan reaches cc before the location's
// cycle plus max(1, d). A recompute costs at least costRecompute and needs
// an all-constant producer that may be duplicated the cycle before.
func (cx *bbCtx) operandBound(p *partial, a cdfg.NodeID, t arch.TileID, cc int) (bound float64, ok bool) {
	av := cx.block.Nodes[a]
	if av.Op == cdfg.OpConst || (av.Op == cdfg.OpSym && len(p.locs[a]) == 0) {
		return 0, true
	}
	best := math.Inf(1)
	for _, l := range p.locs[a] {
		d := cx.grid.Distance(l.Tile, t)
		if cc < l.Cycle+max(1, d) {
			continue
		}
		if c := costMove * float64(max(0, d-1)); c < best {
			best = c
		}
	}
	if best > costRecompute && cc >= 1 && cx.opt.Recompute && cx.recomputable(av) {
		best = costRecompute
	}
	return best, !math.IsInf(best, 1)
}

// costBound is an admissible lower bound on the delta cost planCandidate
// assigns to binding n at (t, cc) under p; ok is false when some operand
// provably cannot be delivered. It mirrors planCandidate term by term:
// operand costs are bounded by operandBound; the writeback-risk penalty is
// charged only when no register is free even before sibling plans claim
// any; the move and recompute tiles' energy and CAB pressure are dropped;
// everything else is exact.
func (cx *bbCtx) costBound(p *partial, n cdfg.NodeID, t arch.TileID, cc int) (bound float64, ok bool) {
	nd := cx.block.Nodes[n]
	var b float64
	for _, a := range nd.Args {
		ob, ok := cx.operandBound(p, a, t, cc)
		if !ok {
			return 0, false
		}
		b += ob
	}
	b += growTerm(p, cc)
	if nd.Op.HasResult() && cx.wantsWriteback(n) && !cx.regAvailableAt(p, nil, t, cc) {
		b += wbRiskCost
	}
	if cx.opt.EnergyAware {
		b += cx.energyTerm(t)
	}
	b += loadTerm(&p.tiles[t])
	if cx.cab {
		b += gapTerm(p, t, cc)
		b += cx.pressureTerm(p, t)
	}
	return b, true
}

// The routing-independent cost terms, shared by planCandidate and
// costBound so both add bit-identical values.

// growTerm prices schedule-length growth.
func growTerm(p *partial, cc int) float64 {
	if grow := cc + 1 - p.maxCycle; grow > 0 {
		return float64(costCycle * float64(grow))
	}
	return 0
}

// energyTerm is the energy-aware cost of one more instruction on tt: one
// context fetch per execution, quadratic in the tile's CM depth.
func (cx *bbCtx) energyTerm(tt arch.TileID) float64 {
	cm := float64(cx.grid.Tile(tt).CMWords)
	return float64(cx.opt.EnergyWeight * cm * cm / 4096)
}

// loadTerm is the mild load-balance pressure of the op tile.
func loadTerm(ts *tileState) float64 {
	return float64(0.015 * float64(ts.Ops+ts.Moves))
}

// gapTerm prices the pnop fragmentation an instruction at (t, cc) causes.
func gapTerm(p *partial, t arch.TileID, cc int) float64 {
	if gapDelta := p.tiles[t].gapDelta(cc); gapDelta > 0 {
		return float64(0.4 * float64(gapDelta))
	}
	return 0
}

// pressureTerm steers away from tiles whose soft context budget is filling.
func (cx *bbCtx) pressureTerm(p *partial, tt arch.TileID) float64 {
	if cx.soft[tt] >= unconstrained {
		return 0
	}
	soft := cx.soft[tt]
	if soft < 1 {
		soft = 1
	}
	proj := float64(p.words(tt, p.maxCycle, false) + 1)
	if frac := proj / float64(soft); frac > 0.5 {
		return float64(6 * (frac - 0.5))
	}
	return 0
}

func heapInit(h []keyed) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		x := h[i]
		j := i
		for {
			l := 2*j + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && h[r].before(h[l]) {
				l = r
			}
			if !h[l].before(x) {
				break
			}
			h[j] = h[l]
			j = l
		}
		h[j] = x
	}
}

func heapPush(h []keyed, x keyed) []keyed {
	h = append(h, x)
	siftUp(h, len(h)-1, x)
	return h
}

// heapPop removes the minimum bottom-up (Floyd): the hole left at the root
// sinks along the smaller children to a leaf, and the last entry rises
// from there — about half the comparisons of a top-down sift, which
// matters when a failing bind step drains every site.
func heapPop(h []keyed) ([]keyed, keyed) {
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	if n == 0 {
		return h, top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(h[l]) {
			l = r
		}
		h[i] = h[l]
		i = l
	}
	siftUp(h, i, x)
	return h, top
}

// siftUp places x at hole i and moves it toward the root.
func siftUp(h []keyed, i int, x keyed) {
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}
