package pbo

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"
)

func TestStrategiesList(t *testing.T) {
	s := Strategies()
	if len(s) != 5 {
		t.Fatalf("got %d strategies", len(s))
	}
	s[0] = "mutated"
	if Strategies()[0] == "mutated" {
		t.Fatal("Strategies returns aliased slice")
	}
}

func TestBenchmarkProblem(t *testing.T) {
	p, err := BenchmarkProblem("ackley", 12, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 12 || !p.Minimize {
		t.Fatalf("problem = %+v", p)
	}
	y, cost := p.Evaluator.Eval(make([]float64, 12))
	if math.Abs(y) > 1e-9 {
		t.Fatalf("ackley(0) = %v", y)
	}
	if cost != 10*time.Second {
		t.Fatalf("cost = %v", cost)
	}
	if _, err := BenchmarkProblem("nope", 3, 0); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestUPHESProblem(t *testing.T) {
	p, err := UPHESProblem(DefaultUPHESConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 12 || p.Minimize {
		t.Fatalf("problem = %+v", p)
	}
}

func TestCustomProblemValidation(t *testing.T) {
	if _, err := CustomProblem("x", nil, []float64{0}, []float64{1, 2}, true, 0); err == nil {
		t.Fatal("expected bounds error")
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	p, err := CustomProblem("sphere",
		func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		[]float64{-3, -3}, []float64{3, 3}, true, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(p, Options{
		Strategy:       "KB-q-EGO",
		BatchSize:      2,
		InitSamples:    8,
		Budget:         80 * time.Second,
		OverheadFactor: 1,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestY > 1.5 {
		t.Fatalf("optimize made no progress: %v", res.BestY)
	}
	if res.Strategy != "KB-q-EGO" || res.Batch != 2 {
		t.Fatalf("result metadata wrong: %+v", res)
	}
}

func TestOptimizeContextCancelled(t *testing.T) {
	p, err := CustomProblem("sphere",
		func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		[]float64{-3, -3}, []float64{3, 3}, true, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := OptimizeContext(ctx, p, Options{
		Strategy: "KB-q-EGO", BatchSize: 2, InitSamples: 4,
		Budget: time.Minute, OverheadFactor: 1, Seed: 7,
	})
	if err == nil {
		t.Fatal("expected an interruption error")
	}
	if !Interrupted(err) {
		t.Fatalf("Interrupted() false for %v", err)
	}
	if res == nil || res.Cycles != 0 {
		t.Fatalf("partial result = %+v", res)
	}
}

func TestOptimizeDefaultsStrategy(t *testing.T) {
	p, err := CustomProblem("sphere1",
		func(x []float64) float64 { return x[0] * x[0] },
		[]float64{-1}, []float64{1}, true, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(p, Options{BatchSize: 2, InitSamples: 6, Budget: 30 * time.Second, OverheadFactor: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "mic-q-EGO" {
		t.Fatalf("default strategy = %s", res.Strategy)
	}
}

func TestOptimizeUnknownStrategy(t *testing.T) {
	p, err := CustomProblem("s", func(x []float64) float64 { return 0 },
		[]float64{0}, []float64{1}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(p, Options{Strategy: "nope"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestUPHESSimulatorBreakdown(t *testing.T) {
	sim, err := UPHESSimulator(DefaultUPHESConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := sim.Detail(make([]float64, 12))
	if b.Profit >= 0 {
		t.Fatalf("idle schedule should lose the fixed O&M cost: %+v", b)
	}
}

func TestSaveLoadResult(t *testing.T) {
	p, err := CustomProblem("s2", func(x []float64) float64 { return x[0] * x[0] },
		[]float64{-1}, []float64{1}, true, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(p, Options{BatchSize: 2, InitSamples: 4, Budget: 20 * time.Second, OverheadFactor: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.BestY != res.BestY || back.Evals != res.Evals {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, res)
	}
}
