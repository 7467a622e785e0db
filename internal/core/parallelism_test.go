package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/surrogate"
)

// sleepyStrategy burns real time in Propose and reports a configurable AP
// parallelism, to exercise the engine's acquisition-time accounting.
type sleepyStrategy struct {
	delay       time.Duration
	parallelism int
}

func (s *sleepyStrategy) Name() string                           { return "sleepy" }
func (s *sleepyStrategy) Reset()                                 {}
func (s *sleepyStrategy) APParallelism(int) int                  { return s.parallelism }
func (s *sleepyStrategy) Observe(*State, [][]float64, []float64) {}
func (s *sleepyStrategy) Propose(_ context.Context, _ surrogate.Surrogate, st *State, q int, stream *rng.Stream) ([][]float64, error) {
	time.Sleep(s.delay)
	return rng.UniformDesign(q, st.Problem.Lo, st.Problem.Hi, stream), nil
}

// runOneCycle runs a single engine cycle of batch size q with the given
// strategy and returns the recorded virtual acquisition time.
func runOneCycle(t *testing.T, s Strategy, q int) time.Duration {
	t.Helper()
	e := &Engine{
		Problem:        sphereProblem(time.Second),
		Strategy:       s,
		BatchSize:      q,
		InitSamples:    8,
		Budget:         time.Hour,
		MaxCycles:      1,
		OverheadFactor: 1,
		Model:          ModelConfig{Restarts: 1, MaxIter: 10, FitSubsetMax: 32},
		Seed:           3,
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 1 {
		t.Fatalf("expected 1 cycle, got %d", len(res.History))
	}
	return res.History[0].AcqTime
}

func TestAPParallelismDividesAcqTime(t *testing.T) {
	const delay = 300 * time.Millisecond
	serial := runOneCycle(t, &sleepyStrategy{delay: delay, parallelism: 1}, 8)
	parallel8 := runOneCycle(t, &sleepyStrategy{delay: delay, parallelism: 8}, 8)
	// The parallel AP must be charged roughly 1/8 of the serial one.
	if parallel8 > serial/4 {
		t.Fatalf("parallel AP charged %v, serial %v — division not applied", parallel8, serial)
	}
	if serial < delay {
		t.Fatalf("serial AP charged %v < actual delay %v", serial, delay)
	}
}

func TestAPParallelismCappedByCores(t *testing.T) {
	const delay = 300 * time.Millisecond
	// Parallel degree 8 but a batch of 2, so 2 cores: speedup must cap at 2.
	capped := runOneCycle(t, &sleepyStrategy{delay: delay, parallelism: 8}, 2)
	if capped < delay/3 {
		t.Fatalf("AP charged %v, below the 2-core floor %v", capped, delay/2)
	}
}
