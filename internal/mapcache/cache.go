// Package mapcache implements a content-addressed cache for compiled CGRA
// mappings: a bounded in-memory LRU over an optional verified on-disk tier
// (cache.go, disk.go), keyed by sha256 of the graph's own text
// (cdfg.MarshalText) × mapper options × grid structure × portfolio
// description. Every entry stores that text and every hit byte-compares it,
// so a hit is the compile of exactly the requested graph.
//
// Determinism rules: nothing in the key may consult wall-clock time, map
// iteration order, or process-local identities — the detrand/maprange
// analyzers in internal/lint enforce this package-wide.
package mapcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/obs"
)

// Config tunes a Cache. The zero value is usable: memory-only, default
// capacity, no instrumentation.
type Config struct {
	// Capacity bounds the in-memory entries (default 128).
	Capacity int
	// Dir, when non-empty, enables the on-disk tier under that directory.
	// Disk entries survive processes; every disk hit is re-verified by
	// internal/verify before use and re-mapped on any mismatch.
	Dir string
	// Obs, when non-nil, receives the mapcache.* counters (hit, miss,
	// evict, disk_hit, disk_reject, bypass, ...). A nil recorder adds zero
	// allocations.
	Obs *obs.Recorder
}

// Request identifies one mapping problem. Graph, Grid and Opt are the
// core.Map inputs; Seeds, Backends and Objective describe the portfolio
// around it (leave them zero for a plain single-seed Map) and enter the
// key verbatim — two requests collide only when every mapping-relevant
// input matches.
type Request struct {
	Graph *cdfg.Graph
	Grid  *arch.Grid
	Opt   core.Options

	// Seeds is the portfolio seed set (nil for a single-seed Map; the base
	// seed is already part of Opt).
	Seeds []int64
	// Backends names the racing backends (nil means the default heuristic).
	Backends []string
	// Objective names the portfolio objective ("" = total words).
	Objective string
}

// key renders the full content address: graph text hash × sanitized
// mapper options × structural grid fingerprint × portfolio description.
func (r *Request) key(text []byte) string {
	sum := sha256.Sum256(text)
	var b strings.Builder
	b.WriteString(hex.EncodeToString(sum[:]))
	b.WriteByte('|')
	b.WriteString(r.Opt.Fingerprint())
	b.WriteByte('|')
	b.WriteString(r.Grid.Fingerprint())
	b.WriteString("|seeds=")
	for i, s := range r.Seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	b.WriteString("|backends=")
	b.WriteString(strings.Join(r.Backends, ","))
	b.WriteString("|objective=")
	b.WriteString(r.Objective)
	return b.String()
}

// keyText renders the graph a request is keyed on, or reports that the
// request cannot be keyed soundly: a profiled Opt (a flat fingerprint
// cannot key a profile) or a graph too malformed to render (nil, no
// blocks, entry out of range). Such requests bypass the cache.
func (r *Request) keyText() ([]byte, bool) {
	g := r.Graph
	if r.Opt.Profile != nil || g == nil || len(g.Blocks) == 0 || g.Entry < 0 || int(g.Entry) >= len(g.Blocks) {
		return nil, false
	}
	text, err := g.MarshalText()
	return text, err == nil
}

// Computed is what a compute callback returns: the freshly mapped result.
// Program is optional — the cache assembles Mapping when it is nil.
type Computed struct {
	Mapping *core.Mapping
	Program *asm.Program
	// Seed/Backend describe which portfolio job won (informational; stored
	// with the entry and reported on hits).
	Seed    int64
	Backend string
}

// Meta is the mapping-derived metadata stored alongside the bitstream, so
// cache hits can rebuild reports without the Mapping object.
type Meta struct {
	Stats     core.Stats
	TileWords []int
	Ops       int
	Moves     int
	Pnops     int
	Words     int
	Seed      int64
	Backend   string
}

// Result is a cache response. Program is rebuilt against the caller's
// graph and Image is its serialized form.
type Result struct {
	Program *asm.Program
	Image   []byte
	Meta    Meta
	// Hit is true when the result came from the cache; Source is one of
	// "compute", "memory", "disk", or "bypass" (uncacheable request).
	Hit    bool
	Source string
}

type entry struct {
	key   string
	text  []byte // the graph's MarshalText, byte-compared on every hit
	image []byte
	meta  Meta
}

// Cache is a two-tier content-addressed store of compiled mappings: an
// in-memory LRU under one lock over an optional verified on-disk tier.
// Concurrent identical misses each compute and store the same entry.
type Cache struct {
	cfg     Config
	mu      sync.Mutex
	entries map[string]*list.Element // values are *entry
	lru     list.List                // front = most recently used
}

// New builds a Cache from cfg (see Config for the zero-value defaults).
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 128
	}
	return &Cache{cfg: cfg, entries: make(map[string]*list.Element)}
}

// Len returns the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// GetOrStore returns the cached result for req, computing and storing it
// via compute on a miss. Requests the cache cannot key soundly (see
// keyText) bypass both tiers and compute directly.
func (c *Cache) GetOrStore(req Request, compute func() (Computed, error)) (Result, error) {
	rec := c.cfg.Obs
	text, ok := req.keyText()
	if !ok {
		rec.Counter("mapcache.bypass").Inc()
		return c.computeOnly(compute)
	}
	key := req.key(text)

	c.mu.Lock()
	var e *entry
	if el, ok := c.entries[key]; ok {
		e = el.Value.(*entry)
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if e != nil {
		// A different text under the same 256-bit key is a hash collision;
		// correctness never rests on collision-freedom, so it recomputes.
		if bytes.Equal(e.text, text) {
			res, err := c.materialize(e, &req, "memory")
			if err == nil {
				rec.Counter("mapcache.hit").Inc()
				return res, nil
			}
			// A stored entry that cannot be rebuilt for this caller is
			// poison; drop it and fall through to compute.
			c.remove(key)
		}
		rec.Counter("mapcache.reject").Inc()
		rec.Counter("mapcache.miss").Inc()
		return c.computeAndStore(key, text, &req, compute)
	}

	if c.cfg.Dir != "" {
		if e, rejected := c.loadDisk(key, text); e != nil {
			// Trust gate: a disk entry is only served after the rebuilt
			// program passes the full static verifier against the caller's
			// graph. A poisoned-but-checksummed file fails here and is
			// re-mapped, never trusted.
			if res, err := c.materialize(e, &req, "disk"); err == nil && verifyDiskResult(&res) == nil {
				c.insert(e)
				rec.Counter("mapcache.disk_hit").Inc()
				return res, nil
			}
			rec.Counter("mapcache.disk_reject").Inc()
		} else if rejected {
			rec.Counter("mapcache.disk_reject").Inc()
		}
	}
	rec.Counter("mapcache.miss").Inc()
	return c.computeAndStore(key, text, &req, compute)
}

// computeOnly runs compute without touching either tier (bypass path).
func (c *Cache) computeOnly(compute func() (Computed, error)) (Result, error) {
	comp, err := compute()
	if err != nil {
		return Result{}, err
	}
	prog, meta, img, err := finishComputed(&comp)
	if err != nil {
		return Result{}, err
	}
	return Result{Program: prog, Image: img, Meta: meta, Source: "bypass"}, nil
}

func (c *Cache) computeAndStore(key string, text []byte, req *Request, compute func() (Computed, error)) (Result, error) {
	comp, err := compute()
	if err != nil {
		return Result{}, err
	}
	prog, meta, img, err := finishComputed(&comp)
	if err != nil {
		return Result{}, err
	}
	e := &entry{key: key, text: text, image: img, meta: meta}
	c.insert(e)
	c.cfg.Obs.Counter("mapcache.store").Inc()
	if c.cfg.Dir != "" {
		if err := c.storeDisk(e); err != nil {
			c.cfg.Obs.Counter("mapcache.disk_write_err").Inc()
		} else {
			c.cfg.Obs.Counter("mapcache.disk_store").Inc()
		}
	}
	return Result{Program: prog, Image: img, Meta: meta, Source: "compute"}, nil
}

// finishComputed normalizes a compute callback's output: assemble when the
// caller did not, serialize the image, derive the stored metadata.
func finishComputed(comp *Computed) (*asm.Program, Meta, []byte, error) {
	m := comp.Mapping
	if m == nil {
		return nil, Meta{}, nil, fmt.Errorf("mapcache: compute returned no mapping")
	}
	prog := comp.Program
	if prog == nil {
		var err error
		if prog, err = asm.Assemble(m); err != nil {
			return nil, Meta{}, nil, err
		}
	}
	img, err := asm.SaveImage(prog)
	if err != nil {
		return nil, Meta{}, nil, err
	}
	meta := Meta{
		Stats:     m.Stats,
		TileWords: m.TileWords(),
		Ops:       m.TotalOps(),
		Moves:     m.TotalMoves(),
		Pnops:     m.TotalPnops(),
		Words:     m.TotalWords(),
		Seed:      comp.Seed,
		Backend:   comp.Backend,
	}
	return prog, meta, img, nil
}

// materialize rebuilds a Result for the caller's graph from a stored
// entry: decode the image and rebuild the executable program against the
// caller's graph. Memory-tier entries were stored by this process under a
// byte-compared graph text, so no re-verification runs here; the disk path
// layers verify.CheckProgram on top (see GetOrStore).
func (c *Cache) materialize(e *entry, req *Request, source string) (Result, error) {
	imgBytes := append([]byte(nil), e.image...)
	img, err := asm.LoadImage(imgBytes)
	if err != nil {
		return Result{}, err
	}
	prog, err := asm.ProgramFromImage(img, req.Graph, req.Grid)
	if err != nil {
		return Result{}, err
	}
	return Result{Program: prog, Image: imgBytes, Meta: e.meta, Hit: true, Source: source}, nil
}

// insert adds (or refreshes) an entry and evicts past capacity.
func (c *Cache) insert(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.lru.PushFront(e)
	for len(c.entries) > c.cfg.Capacity {
		back := c.lru.Back()
		old := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		c.cfg.Obs.Counter("mapcache.evict").Inc()
	}
}

// remove drops a key from the memory tier (poisoned-entry path).
func (c *Cache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
}
