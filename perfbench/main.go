// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the toolchain's public entry points under a
// closed loop of one client per CPU, checks every output, and prints each
// end-to-end metric by name and unit; the last line of its standard
// output is one JSON object. With --trace 1 it also replays the same
// requests by calling each layer's public function itself, with a span
// around each call, and reports per-layer metrics instead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the
// baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const usage = `usage: perfbench --workload <paper-eval|paper-eval-warm|random-cdfg> --seed <n >= 0> --seconds <n > 0> --trace <0|1>`

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	limit    int    // self-test: issue only the first limit requests of the list; 0 = all
	spans    string // a traced run writes its spans here (JSONL)
	scratch  string // run-private files live under this directory
	fault    fault  // self-test fault injection
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n%s\n", err, usage)
		return 2
	}
	return execute(cfg, stdout, stderr)
}

// execute runs the benchmark and prints the result line last.
func execute(cfg config, stdout, stderr io.Writer) int {
	rep, err := bench(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := config{scratch: filepath.Join(".bench_build", "perfbench")}
	var seed, trace string
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.StringVar(&seed, "seed", "", "workload seed (fixes the request order)")
	fs.IntVar(&cfg.seconds, "seconds", 0, "measurement window in seconds")
	fs.StringVar(&trace, "trace", "0", "1 = traced replay with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, err := newWorkload(cfg.workload, "", 0, fault{}); err != nil {
		return cfg, err
	}
	s, err := strconv.ParseInt(seed, 10, 64)
	if err != nil || s < 0 {
		return cfg, fmt.Errorf("bad --seed %q: want an integer >= 0", seed)
	}
	cfg.seed = s
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("bad --seconds %d: want a positive measurement window", cfg.seconds)
	}
	if trace != "0" && trace != "1" {
		return cfg, fmt.Errorf("bad --trace %q: want 0 or 1", trace)
	}
	cfg.trace = trace == "1"
	cfg.spans = filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	return cfg, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passStats is what one pass over the request list measured.
type passStats struct {
	ops     int // operations attempted: the requests, plus the render
	res     []result
	lat     []time.Duration
	wall    time.Duration
	cpu     time.Duration
	heapMB  float64 // mean Go heap in use during the pass
	peakMB  float64 // peak Go heap in use during the pass
	quality quality
	errs    []error
}

func clientCount() int { return runtime.NumCPU() }

func bench(cfg config, stdout, stderr io.Writer) (*report, error) {
	runtime.GOMAXPROCS(clientCount())
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	w, err := newWorkload(cfg.workload, tmp, cfg.limit, cfg.fault)
	if err != nil {
		return nil, err
	}

	var setups []float64
	for i := 0; i < w.setupReps(); i++ {
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	reqs := w.requests()
	// Every run starts measuring from a collected heap, whatever set-up
	// left behind, so heap_mb is the passes' own. Two collections: the
	// first only moves sync.Pool contents (the mapper's arenas) to the
	// victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	mem := startMemSampler()
	defer mem.stop()

	// Untraced passes: whole passes until the window is used up (a pass
	// is never cut short; the metrics describe complete request sets).
	window := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	var passes []passStats
	for i := 0; ; i++ {
		ps, err := runPass(w, reqs, order(cfg.seed, i, len(reqs)), nil, mem)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
		if time.Since(start)+ps.wall > window {
			break
		}
	}
	rep := &report{Metrics: map[string]metric{}}
	var errs []error
	// tally counts a pass's operations and failed checks. The determinism
	// guard: every pass, in whatever order it ran, must reproduce the
	// first untraced pass's quality numbers.
	tally := func(label string, ps passStats) {
		rep.Attempted += ps.ops
		errs = append(errs, ps.errs...)
		if !ps.quality.agrees(passes[0].quality, w.kernelQuality()) {
			errs = append(errs, fmt.Errorf("determinism: %s quality %+v differs from the first pass's %+v", label, ps.quality, passes[0].quality))
		}
	}
	for i, ps := range passes {
		tally(fmt.Sprintf("pass %d", i), ps)
	}

	if !cfg.trace {
		endToEnd(rep, setups, passes)
	} else {
		// The replay issues as many passes as the untraced run, in
		// another seed's order: its quality numbers must match.
		tr := newTracer(clientCount())
		var traced []passStats
		for i := range passes {
			ps, err := runPass(w, reqs, order(cfg.seed+1, i, len(reqs)), tr, mem)
			if err != nil {
				return nil, err
			}
			tally(fmt.Sprintf("traced pass %d", i), ps)
			traced = append(traced, ps)
		}
		roots, layers := tr.requestTimes()
		perLayer(rep, tr, roots, layers, passes, traced)
		if cfg.workload != "random-cdfg" {
			last := len(traced) - 1
			ids := make([]int, len(reqs))
			for i := range ids {
				ids[i] = last*len(reqs) + i
			}
			fmt.Fprint(stdout, cellRows(reqs, traced[last].res, roots, layers, ids))
		}
		if err := tr.writeJSONL(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", cfg.spans)
	}

	for _, err := range errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", err)
	}
	rep.Failed = len(errs)
	rep.Correct = rep.Failed == 0
	summary(stdout, cfg, rep, reqs, passes)
	return rep, nil
}

// order is the seeded issue order of pass i.
func order(seed int64, i, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i))).Perm(n)
}

// runPass issues every request once, in the given order, from one
// closed-loop client per CPU: a client sends its next request only when
// its last one has completed. A traced pass records each request under a
// root "request" span on the client's track.
func runPass(w workload, reqs []request, ord []int, tr *tracer, mem *memSampler) (passStats, error) {
	p, err := w.newPass(tr != nil)
	if err != nil {
		return passStats{}, err
	}
	defer p.close()
	ps := passStats{res: make([]result, len(reqs)), lat: make([]time.Duration, len(reqs))}
	base := 0
	if tr != nil {
		base = tr.nextID
		tr.nextID += len(reqs)
	}
	mem.reset()
	cpu0 := cpuTime()
	t0 := time.Now()
	forEach(len(ord), clientCount(), func(client, n int) {
		var t *track
		if tr != nil {
			t = tr.tracks[client]
		}
		i := ord[n]
		root := 0
		if t != nil {
			t.req = base + i
			root = t.begin("request")
		}
		s := time.Now()
		ps.res[i] = p.do(t, i, &reqs[i])
		ps.lat[i] = time.Since(s)
		if t != nil {
			t.end(root)
		}
	})
	var t *track
	if tr != nil {
		t = tr.tracks[0]
		t.req = -1 // not a request: the render is timed on its own
	}
	rendered, err := p.finish(t)
	if err != nil {
		ps.errs = append(ps.errs, fmt.Errorf("render: %w", err))
	}
	ps.wall = time.Since(t0)
	ps.cpu = cpuTime() - cpu0
	ps.heapMB, ps.peakMB = mem.window()
	ps.ops = len(reqs)
	if rendered {
		ps.ops++
	}
	for i := range ps.res {
		switch {
		case ps.res[i].outcome == failed:
			ps.errs = append(ps.errs, ps.res[i].err)
		case ps.res[i].outcome == unmapped && !reqs[i].noMapping:
			ps.errs = append(ps.errs, fmt.Errorf("%s: no mapping, where the mapper is known to find one", reqs[i].name))
		}
	}
	ps.quality = qualityOf(reqs, ps.res)
	return ps, nil
}

// forEach runs f(client, i) for i in [0, n) on `clients` closed-loop
// clients: each takes the next i only when its last f has returned.
func forEach(n, clients int, f func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler samples the Go heap in use every 5 ms: heap objects (live,
// or dead and not yet swept) plus goroutine stacks. Each pass reads the
// mean and the peak of its own samples. The mean is the bounded metric:
// with two clients, the peak of a single pass depends on which heavy
// cells the seeded order happens to run side by side, while the time
// average depends on it less. Resident memory also counts freed pages
// the runtime has not yet returned to the OS, which the background
// scavenger releases at its own pace; it read two levels from run to run
// for the same work.
type memSampler struct {
	quit chan struct{}
	done chan struct{}
	mu   sync.Mutex
	sum  float64
	n    int
	peak uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/stacks:bytes"},
	}
	metrics.Read(s)
	v := s[0].Value.Uint64() + s[1].Value.Uint64()
	m.mu.Lock()
	m.sum += float64(v)
	m.n++
	m.peak = max(m.peak, v)
	m.mu.Unlock()
}

// reset starts a new window at the current size.
func (m *memSampler) reset() {
	m.mu.Lock()
	m.sum, m.n, m.peak = 0, 0, 0
	m.mu.Unlock()
	m.sample()
}

// window returns the current window's mean and peak in MiB.
func (m *memSampler) window() (mean, peak float64) {
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sum / float64(m.n) / (1 << 20), float64(m.peak) / (1 << 20)
}

// stop ends sampling and waits for the sampler to exit.
func (m *memSampler) stop() {
	close(m.quit)
	<-m.done
}

// endToEnd fills the untraced run's metrics.
func endToEnd(rep *report, setups []float64, passes []passStats) {
	var walls, cpus []float64
	var lats []float64
	// heap_mb is the time average over every pass. Short passes span few
	// collection cycles, so their own means scatter more than a median of
	// three or four can absorb.
	var heapTime, wallTime float64
	for _, ps := range passes {
		walls = append(walls, ps.wall.Seconds())
		cpus = append(cpus, ps.cpu.Seconds())
		heapTime += ps.heapMB * ps.wall.Seconds()
		wallTime += ps.wall.Seconds()
		for _, l := range ps.lat {
			lats = append(lats, ms(l))
		}
	}
	sort.Float64s(lats)
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	set("setup_s", median(setups), "s")
	set("wall_s", median(walls), "s")
	set("cpu_s", median(cpus), "s")
	set("request_p50_ms", quantile(lats, 0.5), "ms")
	set("request_p90_ms", quantile(lats, 0.9), "ms")
	set("heap_mb", heapTime/wallTime, "MB")
}

// perLayer fills the traced run's metrics: per-layer busy time per pass
// (span self time), work counts, and the quality numbers the replay
// measured.
func perLayer(rep *report, tr *tracer, roots map[int]time.Duration, layers map[int]layerTimes, untraced, traced []passStats) {
	n := float64(len(traced))
	var c counts
	busy := map[string]time.Duration{}
	for _, t := range tr.tracks {
		c.add(&t.counts)
	}
	var reqTime, layerTime time.Duration
	for id, d := range roots {
		if id >= 0 {
			reqTime += d
		}
	}
	for id, lt := range layers {
		for name, d := range lt {
			busy[name] += d
			if id >= 0 {
				layerTime += d
			}
		}
	}
	var plain time.Duration
	for _, ps := range untraced {
		for _, l := range ps.lat {
			plain += l
		}
	}
	perPass := func(name string) float64 { return ms(busy[name]) / n }
	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	set("core.map_ok_ms", perPass("core.map_ok"), "ms")
	set("core.map_fail_ms", perPass("core.map_fail"), "ms")
	set("core.map_fail_calls", float64(c.mapFail)/n, "count")
	set("core.map_ok_frac", frac(c.mapOK, c.mapOK+c.mapFail), "frac")
	set("core.schedule_ms", ms(c.phases.Schedule)/n, "ms")
	set("core.bind_ms", ms(c.phases.Bind)/n, "ms")
	set("core.route_ms", ms(c.phases.Route)/n, "ms")
	set("core.prune_ms", ms(c.phases.Prune)/n, "ms")
	set("core.finalize_ms", ms(c.phases.Finalize)/n, "ms")
	set("core.partials", float64(c.partials)/n, "count")
	set("core.pruned_frac", frac(c.pruned, c.partials), "frac")
	set("core.retries", float64(c.retries)/n, "count")
	set("core.memo_hit_frac", frac(c.memoHits, c.memoHits+c.memoMiss), "frac")
	set("mapcache.hit_ms", perPass("mapcache.hit"), "ms")
	set("mapcache.hit_frac", frac(c.cacheHits, c.cacheExpected), "frac")
	set("mapcache.recomputes", float64(c.recomputes)/n, "count")
	set("mapcache.store_ms", perPass("mapcache.store"), "ms")
	set("sim.new_ms", perPass("sim.new"), "ms")
	set("sim.run_ms", perPass("sim.run"), "ms")
	set("sim.batch_ms", perPass("sim.batch"), "ms")
	nsPerCycle := 0.0
	if c.simCycles > 0 {
		nsPerCycle = float64(busy["sim.run"].Nanoseconds()) / float64(c.simCycles)
	}
	set("sim.ns_per_cycle", nsPerCycle, "ns/cycle")
	set("asm.assemble_ms", perPass("asm.assemble"), "ms")
	set("verify.check_ms", perPass("verify.check"), "ms")
	set("verify.rejects", float64(c.verifyRejects)/n, "count")
	set("static.analyze_ms", perPass("static.analyze")+perPass("static.check"), "ms")
	set("static.strip_ms", perPass("static.strip"), "ms")
	set("static.dead_words", float64(c.deadWords)/n, "words")
	set("cdfg.build_ms", perPass("cdfg.build"), "ms")
	set("kernels.check_ms", perPass("kernels.init")+perPass("kernels.check"), "ms")
	set("power.energy_ms", perPass("power.energy"), "ms")
	set("cpu.run_ms", perPass("cpu.run"), "ms")
	set("oracle.compare_ms", perPass("oracle.compare"), "ms")
	set("exp.render_ms", perPass("exp.render"), "ms")
	var peaks []float64
	for _, ps := range untraced {
		peaks = append(peaks, ps.peakMB)
	}
	set("bench.peak_heap_mb", median(peaks), "MB")
	set("bench.layer_coverage", float64(layerTime)/float64(reqTime), "frac")
	set("bench.trace_overhead_frac", float64(reqTime)/float64(plain)-1, "frac")
	q := traced[0].quality
	set("unmapped_frac", frac(q.unmapped, q.mapRequests), "frac")
	set("context_words", float64(q.words), "words")
	set("sim_cycles", float64(q.cycles), "cycles")
	set("energy_uj", q.energy, "uJ")
}

// summary prints every metric and the run's correctness figures in
// human-readable form ahead of the JSON line.
func summary(w io.Writer, cfg config, rep *report, reqs []request, passes []passStats) {
	q := passes[0].quality
	samples := 0
	for _, ps := range passes {
		samples += len(ps.lat)
	}
	fmt.Fprintf(w, "workload %s seed %d: %d untraced pass(es), %d request samples, %d clients\n",
		cfg.workload, cfg.seed, len(passes), samples, clientCount())
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-28s %16.6f %s\n", name, m.Value, m.Unit)
	}
	errFrac := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	fmt.Fprintf(w, "  %-28s %16.6f frac (%d of %d)\n", "error_frac", errFrac, rep.Failed, rep.Attempted)
	if cfg.trace {
		return // the traced run reports the quality numbers as metrics
	}
	known := 0
	for i := range reqs {
		if reqs[i].noMapping {
			known++
		}
	}
	fmt.Fprintf(w, "  %-28s %16.6f frac (%d of %d; %d known zero bars)\n", "unmapped_frac", float64(q.unmapped)/float64(max(q.mapRequests, 1)), q.unmapped, q.mapRequests, known)
	if q.words > 0 {
		fmt.Fprintf(w, "  %-28s %16d words\n", "context_words", q.words)
		fmt.Fprintf(w, "  %-28s %16.6f uJ\n", "energy_uj", q.energy)
	}
	fmt.Fprintf(w, "  %-28s %16d cycles\n", "sim_cycles", q.cycles)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	return sorted[min(i, len(sorted)-1)]
}
