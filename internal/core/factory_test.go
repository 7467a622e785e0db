package core

import (
	"reflect"
	"testing"

	"repro/internal/gp"
)

// TestDefaultFactoryConfig: the default model factory, built fresh or on
// resume, hands the caller's Model fit settings to gp.Config unchanged, so
// a zero Model fits with gp's own defaults. Only RefitEvery is defaulted
// on the engine side.
func TestDefaultFactoryConfig(t *testing.T) {
	for _, tc := range []struct {
		name       string
		model      ModelConfig
		refitEvery int
	}{
		{"zero", ModelConfig{}, 3},
		{"explicit", ModelConfig{Restarts: 3, MaxIter: 7, FitSubsetMax: 40, RefitEvery: 2}, 2},
	} {
		e := askTellEngine(5)
		e.Model = tc.model
		want := gp.Config{
			Lo: e.Problem.Lo, Hi: e.Problem.Hi,
			Restarts: tc.model.Restarts, MaxIter: tc.model.MaxIter, FitSubsetMax: tc.model.FitSubsetMax,
			Seed: e.Seed,
		}
		check := func(how string, at *AskTell) {
			t.Helper()
			f, ok := at.factory.(*gpFactory)
			if !ok {
				t.Fatalf("%s %s: factory is %T, want *gpFactory", tc.name, how, at.factory)
			}
			if !reflect.DeepEqual(f.cfg, want) {
				t.Fatalf("%s %s: gp.Config = %+v, want %+v", tc.name, how, f.cfg, want)
			}
			if f.refitEvery != tc.refitEvery {
				t.Fatalf("%s %s: refitEvery = %d, want %d", tc.name, how, f.refitEvery, tc.refitEvery)
			}
			if m := at.cfg.Model; m.Restarts != tc.model.Restarts || m.MaxIter != tc.model.MaxIter || m.FitSubsetMax != tc.model.FitSubsetMax {
				t.Fatalf("%s %s: defaulted Model = %+v, want the caller's fit settings %+v", tc.name, how, m, tc.model)
			}
		}

		at, err := NewAskTell(e)
		if err != nil {
			t.Fatal(err)
		}
		check("NewAskTell", at)
		c, err := at.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeAskTell(e, c)
		if err != nil {
			t.Fatal(err)
		}
		check("ResumeAskTell", resumed)
	}
}
