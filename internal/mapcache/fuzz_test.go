package mapcache_test

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/verify"
)

// FuzzDiskEntry plants arbitrary bytes as the disk entry of a real FIR
// request and asks a fresh cache for it. Whatever the file holds, the call
// must not panic or fail, and must either serve a program that passes the
// static verifier or recompute. Seeds: the valid envelope, the same
// envelope relabeled version 1, truncations, and a flipped digest.
func FuzzDiskEntry(f *testing.F) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernels.FIR().Build()
	opt := core.DefaultOptions(core.FlowCAB)
	m, err := core.Map(g, grid, opt)
	if err != nil {
		f.Fatal(err)
	}
	compute := func() (mapcache.Computed, error) {
		return mapcache.Computed{Mapping: m, Seed: opt.Seed, Backend: "heuristic"}, nil
	}
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	dir := f.TempDir()
	if _, err := mapcache.New(mapcache.Config{Dir: dir}).GetOrStore(req, compute); err != nil {
		f.Fatal(err)
	}
	files, err := mapcache.EntryFiles(dir)
	if err != nil || len(files) != 1 {
		f.Fatalf("EntryFiles = %v, %v; want exactly one entry", files, err)
	}
	path := files[0]
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	if res, err := mapcache.New(mapcache.Config{Dir: dir}).GetOrStore(req, compute); err != nil || res.Source != "disk" {
		f.Fatalf("the untouched entry was not served from disk: source %q, %v", res.Source, err)
	}

	f.Add(valid)
	v1 := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	sum := sha256.Sum256(v1[:len(v1)-sha256.Size])
	copy(v1[len(v1)-sha256.Size:], sum[:])
	f.Add(v1)
	for _, n := range []int{0, 4, 8, 12, len(valid) / 2, len(valid) - sha256.Size, len(valid) - 1} {
		f.Add(valid[:n])
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := mapcache.New(mapcache.Config{Dir: dir}).GetOrStore(req, compute)
		if err != nil {
			t.Fatalf("GetOrStore failed on a hostile entry: %v", err)
		}
		switch res.Source {
		case "compute":
		case "disk":
			if r := verify.CheckProgram(res.Program); r.Err() != nil {
				t.Fatalf("served a disk entry that fails verification: %v", r.Err())
			}
		default:
			t.Fatalf("source = %q, want disk or compute", res.Source)
		}
	})
}
