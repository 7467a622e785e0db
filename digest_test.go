package pbo

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

var updateDigests = flag.Bool("updatedigests", false, "rewrite the paper-workload digest file")

// paperDigestFile pins an FNV-1a digest of every X and Y bit of short
// paper workloads at d=12: one UPHES day per paper strategy at its paper
// batch size, one constrained scenario cell, and one asynchronous
// ask/tell session; plus a horizon-2 constrained cell at d=24, the
// fleets' dimension, and a benchmark-function day at d=6, not a multiple
// of four. Unlike the 2-D golden traces, these reach the UPHES
// plant, an 8-step Kriging-Believer chain and d=12 fits, so a change that
// claims bit identity on the paper's workloads is checked here. A change
// that regenerates the file with -updatedigests names every digest it
// moved, and why.
const paperDigestFile = "testdata/paper_digests.json"

// digestFile is the on-disk form: the architecture the digests hold for
// and one hex digest per workload.
type digestFile struct {
	Arch    string            `json:"arch"`
	Digests map[string]string `json:"digests"`
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// digestResult folds the bits of every evaluated point and its value, in
// evaluation order, into one FNV-1a digest.
func digestResult(res *core.Result) uint64 {
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	for i, x := range res.X {
		for _, v := range x {
			mix(math.Float64bits(v))
		}
		mix(math.Float64bits(res.Y[i]))
	}
	return h
}

// paperDay runs a short UPHES day under the named strategy: the engine
// that OptimizeContext builds, with a smaller initial design and a few
// fixed cycles under an unbounded virtual budget, so measured times never
// reach the trace.
func paperDay(name string, q, init, cycles int, seed uint64) func() (*core.Result, error) {
	return func() (*core.Result, error) {
		p, err := UPHESProblem(DefaultUPHESConfig())
		if err != nil {
			return nil, err
		}
		return OptimizeContext(context.Background(), p, Options{
			Strategy:       name,
			BatchSize:      q,
			InitSamples:    init,
			Budget:         time.Duration(1 << 62),
			MaxCycles:      cycles,
			OverheadFactor: 1,
			Seed:           seed,
		})
	}
}

// constrainedCell runs one scenario cell: the constrained problem over
// horizon days (d = 12·horizon) with its two-GP model factory.
func constrainedCell(horizon int) func() (*core.Result, error) {
	return func() (*core.Result, error) {
		spec := &scenario.DaySpec{
			Gen:     scenario.GenConfig{Seed: 5, Members: 2},
			Member:  1,
			Day:     2,
			Horizon: horizon,
		}
		return scenario.LocalRunner{}.RunDay(context.Background(), spec, scenario.OptConfig{
			Strategy:    "mic-q-EGO",
			BatchSize:   4,
			InitSamples: 32,
			MaxCycles:   4,
			Seed:        13,
		})
	}
}

// benchmarkDay runs KB-q-EGO at q=4 on a synthetic benchmark function in
// dim dimensions, a size the UPHES workloads never reach.
func benchmarkDay(name string, dim int, seed uint64) func() (*core.Result, error) {
	return func() (*core.Result, error) {
		p, err := BenchmarkProblem(name, dim, 0)
		if err != nil {
			return nil, err
		}
		return OptimizeContext(context.Background(), p, Options{
			Strategy:       "KB-q-EGO",
			BatchSize:      4,
			InitSamples:    24,
			Budget:         time.Duration(1 << 62),
			MaxCycles:      6,
			OverheadFactor: 1,
			Seed:           seed,
		})
	}
}

// asyncSession drives an asynchronous ask/tell session on the UPHES day:
// it fills every free in-flight slot, then tells the newest pending
// point, until the run is done.
func asyncSession() (*core.Result, error) {
	p, err := UPHESProblem(DefaultUPHESConfig())
	if err != nil {
		return nil, err
	}
	strat, err := strategy.ByName("KB-q-EGO")
	if err != nil {
		return nil, err
	}
	e := &core.Engine{
		Problem:        p,
		Strategy:       strat,
		Mode:           core.Asynchronous,
		BatchSize:      4,
		InitSamples:    32,
		MaxCycles:      24,
		Budget:         time.Duration(1 << 62),
		OverheadFactor: 1,
		Pool:           &parallel.Pool{Overhead: parallel.LinearOverhead(100*time.Millisecond, 50*time.Millisecond)},
		Seed:           17,
	}
	at, err := core.NewAskTell(e)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for {
		for {
			_, err := at.Ask(ctx)
			if errors.Is(err, core.ErrNoBatchReady) || errors.Is(err, core.ErrDone) {
				break
			}
			if err != nil {
				return nil, err
			}
		}
		pend := at.Pending()
		if len(pend) == 0 {
			if !at.Done() {
				return nil, errors.New("no pending work but the session is not done")
			}
			return at.Result(), nil
		}
		b := pend[len(pend)-1]
		br, err := e.Pool.EvalBatch(ctx, p.Evaluator, b.Points)
		if err != nil {
			return nil, err
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			return nil, err
		}
	}
}

// TestPaperWorkloadDigests is the bit-identity gate of the paper's
// workloads. The digests are for amd64: arm64 may fuse x·y+z into one
// rounding, which moves bits legitimately.
func TestPaperWorkloadDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded for amd64, not %s", runtime.GOARCH)
	}
	workloads := []struct {
		name string
		run  func() (*core.Result, error)
	}{
		{"KB-q-EGO/q8", paperDay("KB-q-EGO", 8, 64, 4, 9001)},
		{"mic-q-EGO/q4", paperDay("mic-q-EGO", 4, 48, 6, 9002)},
		{"MC-based q-EGO/q4", paperDay("MC-based q-EGO", 4, 48, 4, 9003)},
		{"BSP-EGO/q4", paperDay("BSP-EGO", 4, 48, 6, 9004)},
		{"TuRBO/q4", paperDay("TuRBO", 4, 48, 6, 9005)},
		{"constrained-cell", constrainedCell(1)},
		{"constrained-cell/h2", constrainedCell(2)},
		{"rosenbrock6/q4", benchmarkDay("rosenbrock", 6, 9006)},
		{"async-session", asyncSession},
	}
	got := map[string]string{}
	for _, w := range workloads {
		res, err := w.run()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got[w.name] = fmt.Sprintf("%016x", digestResult(res))
		t.Logf("%s: %d evals, %d cycles", w.name, len(res.Y), len(res.History))
	}
	if *updateDigests {
		data, err := json.MarshalIndent(digestFile{Arch: runtime.GOARCH, Digests: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(paperDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperDigestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(paperDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want digestFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Arch != runtime.GOARCH {
		t.Fatalf("digest file is for %s, running on %s", want.Arch, runtime.GOARCH)
	}
	if len(want.Digests) != len(workloads) {
		t.Fatalf("digest file has %d workloads, want %d", len(want.Digests), len(workloads))
	}
	for _, w := range workloads {
		if got[w.name] != want.Digests[w.name] {
			t.Errorf("%s: digest %s, want %s (bits moved)", w.name, got[w.name], want.Digests[w.name])
		}
	}
}
