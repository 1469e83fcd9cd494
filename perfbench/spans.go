package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point (the program itself is never handed a recorder).
// Times are offsets from the tracer's start.
type span struct {
	name       string
	req        int // request id shared by every span of one request
	parent     int // index of the enclosing span on the same track, -1 for a request root
	start, end time.Duration
}

// counts are the per-layer work counters a traced replay accumulates
// next to its spans (the things a span's duration cannot say: how many
// partials the mapper explored, which cache tier served a request).
type counts struct {
	mapOK, mapFail     int
	phases             core.PhaseTimes
	partials, pruned   int
	retries            int
	memoHits, memoMiss int
	simCycles          int64 // cycles simulated inside sim.run spans
	cacheExpected      int   // cache lookups that should have hit
	cacheHits          int
	recomputes         int
	verifyRejects      int
	deadWords          int
}

func (c *counts) add(o *counts) {
	c.mapOK += o.mapOK
	c.mapFail += o.mapFail
	c.phases.Schedule += o.phases.Schedule
	c.phases.Bind += o.phases.Bind
	c.phases.Route += o.phases.Route
	c.phases.Prune += o.phases.Prune
	c.phases.Finalize += o.phases.Finalize
	c.partials += o.partials
	c.pruned += o.pruned
	c.retries += o.retries
	c.memoHits += o.memoHits
	c.memoMiss += o.memoMiss
	c.simCycles += o.simCycles
	c.cacheExpected += o.cacheExpected
	c.cacheHits += o.cacheHits
	c.recomputes += o.recomputes
	c.verifyRejects += o.verifyRejects
	c.deadWords += o.deadWords
}

// track is one client's span buffer. Only its own client goroutine
// touches it, so recording takes no lock; spans stay in memory until the
// run ends.
type track struct {
	start time.Time
	tid   int
	req   int
	open  []int
	spans []span
	counts
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *track) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: time.Since(t.start)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *track) end(id int) {
	t.spans[id].end = time.Since(t.start)
	t.open = t.open[:len(t.open)-1]
}

// do wraps f in a span.
func (t *track) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// mapped closes a core.map span, naming it by outcome and folding the
// mapper's own statistics into the track's counters.
func (t *track) mapped(id int, m *core.Mapping, err error) {
	t.end(id)
	if err != nil {
		t.spans[id].name = "core.map_fail"
		t.mapFail++
		return
	}
	t.spans[id].name = "core.map_ok"
	t.mapOK++
	st := &m.Stats
	t.phases.Schedule += st.Phases.Schedule
	t.phases.Bind += st.Phases.Bind
	t.phases.Route += st.Phases.Route
	t.phases.Prune += st.Phases.Prune
	t.phases.Finalize += st.Phases.Finalize
	t.partials += st.Partials
	t.pruned += st.PrunedACMAP + st.PrunedECMAP + st.PrunedStochastic
	t.retries += st.Retries
	t.memoHits += st.MemoHits
	t.memoMiss += st.MemoMisses
}

// tracer owns one track per client for a traced run.
type tracer struct {
	start  time.Time
	tracks []*track
	nextID int
}

func newTracer(clients int) *tracer {
	tr := &tracer{start: time.Now()}
	for i := 0; i < clients; i++ {
		tr.tracks = append(tr.tracks, &track{start: tr.start, tid: i})
	}
	return tr
}

// layerTimes is the self time (span duration minus nested spans) per
// span name, for the spans of one request or a whole run.
type layerTimes map[string]time.Duration

// requestTimes returns, per request id, the root "request" span's
// duration and the self time of each layer span under it. Spans outside
// any request (the render) are filed under id -1.
func (tr *tracer) requestTimes() (roots map[int]time.Duration, layers map[int]layerTimes) {
	roots, layers = map[int]time.Duration{}, map[int]layerTimes{}
	for _, t := range tr.tracks {
		self := make([]time.Duration, len(t.spans))
		for i, s := range t.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		for i, s := range t.spans {
			if s.name == "request" {
				roots[s.req] += s.end - s.start
				continue
			}
			if layers[s.req] == nil {
				layers[s.req] = layerTimes{}
			}
			layers[s.req][s.name] += self[i]
		}
	}
	return roots, layers
}

// writeJSONL writes every span as an obs complete event ("X", µs since
// the tracer started), one per line, in the format obs.ReadEvents
// parses. Each request's spans carry its id in args.req.
func (tr *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sink := obs.NewJSONLSink(w)
	for _, t := range tr.tracks {
		for i, s := range t.spans {
			sink.Emit(obs.Event{
				Name: s.name, Cat: layerOf(s.name), Ph: obs.PhaseComplete,
				TS:  float64(s.start.Nanoseconds()) / 1e3,
				Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
				PID: obs.PIDTool, TID: t.tid,
				Args: map[string]any{"req": s.req, "span": i, "parent": s.parent},
			})
		}
	}
	if err := sink.Err(); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a span name to its layer (module) name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// cellRows renders one row per request of a traced pass: outcome,
// request time and each layer's self time, so a later gain can be
// located on the cell that moved.
func cellRows(reqs []request, res []result, roots map[int]time.Duration, layers map[int]layerTimes, reqIDs []int) string {
	cols := []string{"cdfg", "core", "mapcache", "asm", "verify", "static", "sim", "kernels", "power", "cpu", "oracle"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s %-9s %9s", "request", "outcome", "total_ms")
	for _, c := range cols {
		fmt.Fprintf(&sb, " %9s", c+"_ms")
	}
	sb.WriteByte('\n')
	for i := range reqs {
		id := reqIDs[i]
		fmt.Fprintf(&sb, "%-34s %-9s %9.2f", reqs[i].name, res[i].outcome, ms(roots[id]))
		byLayer := map[string]time.Duration{}
		for name, d := range layers[id] {
			byLayer[layerOf(name)] += d
		}
		for _, c := range cols {
			fmt.Fprintf(&sb, " %9.2f", ms(byLayer[c]))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
