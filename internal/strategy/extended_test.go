package strategy

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

func TestExtendedRegistry(t *testing.T) {
	for _, name := range ExtendedNames {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%s).Name() = %s", name, s.Name())
		}
	}
}

func TestExtendedStrategiesProposeValidBatches(t *testing.T) {
	p := sphereProblem()
	m, st := fitState(t, p, 16)
	for _, name := range ExtendedNames {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s.Reset()
		batch, err := s.Propose(context.Background(), m, st, 3, rng.New(31, 31))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inBounds(t, p, batch, 3)
	}
}

func TestExtendedStrategiesEndToEnd(t *testing.T) {
	// Each extended strategy must drive the engine on the sphere.
	for _, name := range ExtendedNames {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := sphereProblem()
		e := &core.Engine{
			Problem:        p,
			Strategy:       s,
			BatchSize:      2,
			InitSamples:    8,
			Budget:         60 * time.Second,
			OverheadFactor: 1,
			Model:          core.ModelConfig{Restarts: 1, MaxIter: 10, FitSubsetMax: 48},
			Seed:           36,
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.BestY > 3 {
			t.Fatalf("%s: final best %v too poor", name, res.BestY)
		}
	}
}
