package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/isa"
	"repro/internal/mapcache"
	"repro/internal/obs"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny returns a small run's configuration with its scratch files in a
// test directory.
func tiny(t *testing.T, workload string, limit int, trace bool) config {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1"}
	if trace {
		args = append(args, "--trace", "1")
	}
	cfg, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	cfg.limit = limit
	cfg.scratch = t.TempDir()
	cfg.spans = filepath.Join(cfg.scratch, "spans.jsonl")
	return cfg
}

// execTiny runs cfg and decodes the result line, which must be the last
// line of standard output.
func execTiny(t *testing.T, cfg config) (report, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := execute(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
	}
	if rep.Attempted < 1 {
		t.Fatalf("attempted = %d", rep.Attempted)
	}
	return rep, stdout.String()
}

// tinyLimits sizes each workload's smoke run: the cheapest requests at
// the head of each request list.
var tinyLimits = map[string]int{"paper-eval": 3, "paper-eval-warm": 3, "random-cdfg": 4}

// TestTinyRunsPrintEveryMetric: on every workload, a tiny untraced run
// prints exactly the end-to-end metrics of BENCHMARK.json and a traced
// run exactly the per-layer ones, each with its unit, each also in the
// human-readable summary.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(tinyLimits) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the self-test knows %d", len(spec.Workloads), len(tinyLimits))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			rep, out := execTiny(t, tiny(t, wl.Name, tinyLimits[wl.Name], trace))
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d", wl.Name, trace, rep.Correct, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, "  "+m.Name+" ") {
					t.Errorf("%s trace=%v: summary does not print %s", wl.Name, trace, m.Name)
				}
			}
			if !trace {
				for _, m := range spec.EndToEnd {
					if rep.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, rep.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestTracedSpansParse: the traced run's span file parses with
// obs.ReadEvents, every span carries its request id, and the layer spans
// cover the request time.
func TestTracedSpansParse(t *testing.T) {
	cfg := tiny(t, "paper-eval", 3, true)
	rep, out := execTiny(t, cfg)
	f, err := os.Open(cfg.spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	requests := 0
	for _, e := range events {
		if _, ok := e.Args["req"]; !ok {
			t.Fatalf("span %s has no request id", e.Name)
		}
		if e.Name == "request" {
			requests++
		}
	}
	if requests == 0 || requests%3 != 0 {
		t.Errorf("%d request spans, want 3 per traced pass", requests)
	}
	if cov := rep.Metrics["bench.layer_coverage"].Value; cov < 0.95 {
		t.Errorf("layer coverage %.3f < 0.95", cov)
	}
	if !strings.Contains(out, "FIR/basic/HOM64/fwd") || !strings.Contains(out, "core_ms") {
		t.Errorf("traced kernel run prints no per-cell rows:\n%s", out)
	}
}

// corruptStores makes every store write a wrong constant, so the
// simulated memory diverges from the interpreter.
func corruptStores(p *asm.Program) {
	for ti := range p.Tiles {
		tc := &p.Tiles[ti]
		for si := range tc.Segments {
			for ii := range tc.Segments[si].Instrs {
				in := &tc.Segments[si].Instrs[ii]
				if in.Kind == isa.KOp && in.Op == cdfg.OpStore {
					in.Srcs[1] = isa.Const(0x5aa5a5)
				}
			}
		}
	}
}

// TestFaultCountedInErrorFrac: a request whose program is corrupted is
// counted as failed — in the untraced oracle path — not dropped.
func TestFaultCountedInErrorFrac(t *testing.T) {
	cfg := tiny(t, "random-cdfg", 4, false)
	cfg.fault = fault{req: "g01/basic/HOM64", mutate: corruptStores}
	rep, _ := execTiny(t, cfg)
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted request not counted: correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
	}
	if rep.Failed > rep.Attempted {
		t.Fatalf("failed %d > attempted %d", rep.Failed, rep.Attempted)
	}
}

// TestWrongCacheHitCounted: a legal bitstream planted in the warm
// workload's cache under another cell's key passes the cache's verify
// gate, so only the benchmark's comparison with the set-up compile can
// catch it — in both the untraced and the traced run.
func TestWrongCacheHitCounted(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := tiny(t, "paper-eval-warm", 3, trace)
		cfg.fault.cache = func(dir string, images map[string][]byte) error {
			// FIR's weighted-traversal mapping is a legal program for the
			// forward-traversal cell too: same graph, same grid.
			wrong := images["FIR/basic/HOM64/weighted"]
			if bytes.Equal(wrong, images["FIR/basic/HOM64/fwd"]) {
				t.Fatal("the two FIR traversals compile to identical bitstreams")
			}
			files, err := mapcache.EntryFiles(dir)
			if err != nil {
				return err
			}
			for _, f := range files {
				if err := mapcache.RewriteEntry(f, func([]byte) []byte { return append([]byte(nil), wrong...) }); err != nil {
					return err
				}
			}
			return nil
		}
		rep, _ := execTiny(t, cfg)
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("trace=%v: wrong cache hit not counted: correct=%v failed=%d", trace, rep.Correct, rep.Failed)
		}
	}
}

// TestUnexpectedNoMappingCounted: a request that ends without a mapping
// fails a check unless it is a known zero bar, so a mapper that gives up
// early cannot read as faster.
func TestUnexpectedNoMappingCounted(t *testing.T) {
	var zeroBar request
	for _, r := range randomRequests() {
		if r.name == "g09/acmap/HET2" {
			zeroBar = r
		}
	}
	if !zeroBar.noMapping {
		t.Fatal("g09/acmap/HET2 is not listed as a known zero bar")
	}
	mem := startMemSampler()
	defer mem.stop()
	w := &randomCDFG{tmp: t.TempDir()}
	for _, known := range []bool{true, false} {
		r := zeroBar
		r.noMapping = known
		ps, err := runPass(w, []request{r}, []int{0}, nil, mem)
		if err != nil {
			t.Fatal(err)
		}
		if ps.res[0].outcome != unmapped {
			t.Fatalf("g09/acmap/HET2: outcome %s, want %s", ps.res[0].outcome, unmapped)
		}
		if failed := len(ps.errs) > 0; failed == known {
			t.Errorf("known zero bar %v: failed checks %v", known, ps.errs)
		}
	}
}

// TestKernelQualityIndependentOfSeed: on the kernel workloads the seed
// only reorders requests, so the deterministic quality numbers agree
// across seeds (and, inside each traced run, with the untraced pass).
func TestKernelQualityIndependentOfSeed(t *testing.T) {
	deterministic := []string{"unmapped_frac", "context_words", "sim_cycles", "energy_uj", "static.dead_words"}
	var first map[string]metric
	for _, seed := range []int64{5, 6} {
		cfg := tiny(t, "paper-eval", 4, true)
		cfg.seed = seed
		rep, _ := execTiny(t, cfg)
		if !rep.Correct {
			t.Fatalf("seed %d: %d checks failed", seed, rep.Failed)
		}
		if first == nil {
			first = rep.Metrics
			continue
		}
		for _, name := range deterministic {
			if rep.Metrics[name] != first[name] {
				t.Errorf("%s differs across seeds: %v vs %v", name, rep.Metrics[name], first[name])
			}
		}
	}
}

// TestUsageErrors: bad invocations exit 2 with a usage message and print
// no result line.
func TestUsageErrors(t *testing.T) {
	ok := []string{"--workload", "paper-eval", "--seed", "1", "--seconds", "1", "--trace", "0"}
	with := func(k, v string) []string {
		args := append([]string(nil), ok...)
		for i := 0; i < len(args); i += 2 {
			if args[i] == k {
				args[i+1] = v
				return args
			}
		}
		return append(args, k, v)
	}
	cases := map[string][]string{
		"no args":          nil,
		"unknown workload": with("--workload", "nope"),
		"seed not integer": with("--seed", "x"),
		"negative seed":    with("--seed", "-1"),
		"zero seconds":     with("--seconds", "0"),
		"bad trace":        with("--trace", "2"),
		"unknown flag":     with("--bogus", "1"),
		"stray argument":   append(append([]string(nil), ok...), "extra"),
	}
	for name, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q", name, stdout.String())
		}
		if !strings.Contains(stderr.String(), "usage:") {
			t.Errorf("%s: no usage message: %q", name, stderr.String())
		}
	}
}
