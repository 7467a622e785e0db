package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/session"
)

func serverSpec() serve.SessionSpec {
	return serve.SessionSpec{
		ID:             "levy-e2e",
		Problem:        serve.ProblemSpec{Kind: "benchmark", Name: "levy", Dim: 2},
		Strategy:       "KB-q-EGO",
		BatchSize:      2,
		InitSamples:    6,
		MaxCycles:      2,
		BudgetNS:       int64(time.Hour),
		OverheadFactor: 1,
		Model:          core.ModelConfig{Restarts: 1, MaxIter: 10, FitSubsetMax: 48},
		Seed:           3,
	}
}

// waitForAddr polls the addrfile the server writes once its listener is
// bound.
func waitForAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
			return string(raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never wrote its address file")
	return ""
}

// TestServerSIGTERMDrainAndResume is the full lifecycle under real
// signals: boot the server, drive a session partway over loopback HTTP
// (leaving a half-told batch in flight), deliver an actual SIGTERM to
// the process, and require run() to drain gracefully — in-flight state
// snapshotted, clean exit. Then boot a second server with -resume over
// the same snapshot root, recover the pending work and finish: the final
// result must match the uninterrupted closed-loop run.
func TestServerSIGTERMDrainAndResume(t *testing.T) {
	spec := serverSpec()
	eng, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ev := eng.Problem.Evaluator

	snapdir := filepath.Join(t.TempDir(), "snaps")

	// Phase 1: serve, drive partway, SIGTERM, expect a graceful drain.
	addrfile1 := filepath.Join(t.TempDir(), "addr1")
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	var log1 bytes.Buffer
	var runErr error
	if err := parallel.ForEach(context.Background(), 2, 2, func(i int) {
		switch i {
		case 0:
			runErr = run(sigCtx, []string{"-addr", "127.0.0.1:0", "-snapdir", snapdir, "-addrfile", addrfile1}, &log1)
		case 1:
			c := &serve.Client{BaseURL: "http://" + waitForAddr(t, addrfile1)}
			ctx := context.Background()
			if _, err := c.Create(ctx, spec); err != nil {
				t.Errorf("create: %v", err)
			} else {
				// Design (3 waves) plus cycle 1, then half of cycle 2.
				for k := 0; k < 4; k++ {
					b, done, err := c.Ask(ctx, spec.ID)
					if err != nil || done {
						t.Errorf("ask %d: done=%v err=%v", k, done, err)
						break
					}
					for m, x := range b.Points {
						y, cost := ev.Eval(x)
						if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{{
							BatchID: b.ID, Member: m, Y: y, CostNS: int64(cost),
						}}); err != nil {
							t.Errorf("tell: %v", err)
						}
					}
				}
				if b, done, err := c.Ask(ctx, spec.ID); err != nil || done {
					t.Errorf("ask in-flight batch: done=%v err=%v", done, err)
				} else {
					y, cost := ev.Eval(b.Points[0])
					if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{{
						BatchID: b.ID, Member: 0, Y: y, CostNS: int64(cost),
					}}); err != nil {
						t.Errorf("partial tell: %v", err)
					}
				}
				// The metrics rollup sees the half-driven fleet: five
				// successful asks, nine member-level tells, one pending
				// batch, snapshots accumulating on disk. (Done is already
				// true: the last cycle's batch has been asked, so the
				// engine has no further work to hand out.)
				if sm, err := c.ServerMetrics(ctx); err != nil {
					t.Errorf("server metrics: %v", err)
				} else if sm.Sessions != 1 || sm.Asks != 5 || sm.Tells != 9 || sm.Pending != 1 {
					t.Errorf("server metrics before drain: %+v", sm)
				}
				if m, err := c.Metrics(ctx, spec.ID); err != nil {
					t.Errorf("session metrics: %v", err)
				} else if m.Mode != "sync" || m.Snapshots == 0 || m.SnapshotBytes == 0 {
					t.Errorf("session metrics before drain: %+v", m)
				}
			}
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Errorf("kill: %v", err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("server did not exit cleanly after SIGTERM: %v", runErr)
	}
	if !strings.Contains(log1.String(), "drained; all sessions snapshotted") {
		t.Fatalf("no drain confirmation in server log:\n%s", log1.String())
	}

	// Phase 2: a fresh process resumes the fleet and finishes the run.
	addrfile2 := filepath.Join(t.TempDir(), "addr2")
	ctx2, cancel2 := context.WithCancel(context.Background())
	var log2 bytes.Buffer
	var runErr2 error
	var got *core.Result
	if err := parallel.ForEach(context.Background(), 2, 2, func(i int) {
		switch i {
		case 0:
			runErr2 = run(ctx2, []string{"-addr", "127.0.0.1:0", "-snapdir", snapdir, "-resume", "-maxdone", "4", "-addrfile", addrfile2}, &log2)
		case 1:
			defer cancel2()
			c := &serve.Client{BaseURL: "http://" + waitForAddr(t, addrfile2)}
			ctx := context.Background()
			st, err := c.Status(ctx, spec.ID)
			if err != nil {
				t.Errorf("resumed server lost the session: %v", err)
				return
			}
			if len(st.Pending) != 1 || st.Pending[0].Received != 1 {
				t.Errorf("pending after resume %+v, want the half-told batch", st.Pending)
			}
			pws, err := c.PendingWork(ctx, spec.ID)
			if err != nil {
				t.Errorf("pending work: %v", err)
				return
			}
			for _, pw := range pws {
				for m, x := range pw.Batch.Points {
					if pw.Received[m] {
						continue
					}
					y, cost := ev.Eval(x)
					if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{{
						BatchID: pw.Batch.ID, Member: m, Y: y, CostNS: int64(cost),
					}}); err != nil {
						t.Errorf("recovery tell: %v", err)
						return
					}
				}
			}
			for {
				b, done, err := c.Ask(ctx, spec.ID)
				if err != nil {
					t.Errorf("ask: %v", err)
					return
				}
				if done {
					break
				}
				for m, x := range b.Points {
					y, cost := ev.Eval(x)
					if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{{
						BatchID: b.ID, Member: m, Y: y, CostNS: int64(cost),
					}}); err != nil {
						t.Errorf("tell: %v", err)
						return
					}
				}
			}
			got, err = c.Result(ctx, spec.ID)
			if err != nil {
				t.Errorf("result: %v", err)
			}
			if sm, err := c.ServerMetrics(ctx); err != nil {
				t.Errorf("server metrics: %v", err)
			} else if sm.DoneSessions != 1 || sm.Pending != 0 {
				t.Errorf("server metrics after finish: %+v", sm)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if runErr2 != nil {
		t.Fatalf("resumed server exited with error: %v", runErr2)
	}
	if !strings.Contains(log2.String(), "resumed 1 session(s): "+spec.ID) {
		t.Fatalf("no resume confirmation in server log:\n%s", log2.String())
	}
	if got == nil {
		t.Fatal("no final result")
	}
	if !reflect.DeepEqual(ref.X, got.X) || !reflect.DeepEqual(ref.Y, got.Y) {
		t.Error("trace diverged across SIGTERM + resume")
	}
	//lint:ignore floatcmp the incumbent must survive kill-and-resume exactly
	if got.BestY != ref.BestY || !reflect.DeepEqual(ref.BestX, got.BestX) {
		t.Errorf("incumbent %v/%v, want %v/%v", got.BestX, got.BestY, ref.BestX, ref.BestY)
	}
	if got.Cycles != ref.Cycles || got.Evals != ref.Evals {
		t.Errorf("counters (%d,%d), want (%d,%d)", got.Cycles, got.Evals, ref.Cycles, ref.Evals)
	}
}

// TestServerMigrateTwoProcesses moves a live session between two real
// servers — separate run() processes, separate snapshot roots — through
// the export/import protocol: drive partway on the source (leaving a
// half-told batch in flight), Migrate across loopback HTTP, recover the
// pending work on the target and finish there. The final result must
// match the uninterrupted closed-loop run, and the source must both
// forget the session and keep its exported frame on disk.
func TestServerMigrateTwoProcesses(t *testing.T) {
	spec := serverSpec()
	spec.ID = "levy-mig"
	eng, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ev := eng.Problem.Evaluator

	snapdirA := filepath.Join(t.TempDir(), "snaps-a")
	snapdirB := filepath.Join(t.TempDir(), "snaps-b")
	addrfileA := filepath.Join(t.TempDir(), "addr-a")
	addrfileB := filepath.Join(t.TempDir(), "addr-b")
	ctxA, stopA := context.WithCancel(context.Background())
	ctxB, stopB := context.WithCancel(context.Background())
	var logA, logB bytes.Buffer
	var runErrA, runErrB error
	var got *core.Result
	if err := parallel.ForEach(context.Background(), 3, 3, func(i int) {
		switch i {
		case 0:
			runErrA = run(ctxA, []string{"-addr", "127.0.0.1:0", "-snapdir", snapdirA, "-addrfile", addrfileA}, &logA)
		case 1:
			runErrB = run(ctxB, []string{"-addr", "127.0.0.1:0", "-snapdir", snapdirB, "-addrfile", addrfileB}, &logB)
		case 2:
			defer stopA()
			defer stopB()
			cA := &serve.Client{BaseURL: "http://" + waitForAddr(t, addrfileA)}
			cB := &serve.Client{BaseURL: "http://" + waitForAddr(t, addrfileB)}
			ctx := context.Background()
			if _, err := cA.Create(ctx, spec); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			// Design (3 waves) plus cycle 1, then half of cycle 2.
			for k := 0; k < 4; k++ {
				b, done, err := cA.Ask(ctx, spec.ID)
				if err != nil || done {
					t.Errorf("ask %d: done=%v err=%v", k, done, err)
					return
				}
				for m, x := range b.Points {
					y, cost := ev.Eval(x)
					if _, err := cA.Tell(ctx, spec.ID, []session.EvalResult{{
						BatchID: b.ID, Member: m, Y: y, CostNS: int64(cost),
					}}); err != nil {
						t.Errorf("tell: %v", err)
						return
					}
				}
			}
			b, done, err := cA.Ask(ctx, spec.ID)
			if err != nil || done {
				t.Errorf("ask in-flight batch: done=%v err=%v", done, err)
				return
			}
			y, cost := ev.Eval(b.Points[0])
			if _, err := cA.Tell(ctx, spec.ID, []session.EvalResult{{
				BatchID: b.ID, Member: 0, Y: y, CostNS: int64(cost),
			}}); err != nil {
				t.Errorf("partial tell: %v", err)
				return
			}

			st, err := cA.Migrate(ctx, spec.ID, cB)
			if err != nil {
				t.Errorf("migrate: %v", err)
				return
			}
			if len(st.Pending) != 1 || st.Pending[0].Received != 1 {
				t.Errorf("pending after migrate %+v, want the half-told batch", st.Pending)
			}
			// The source forgot the session but kept the exported frame.
			if _, err := cA.Status(ctx, spec.ID); err == nil || !strings.Contains(err.Error(), "unknown session") {
				t.Errorf("source still serves the migrated session: %v", err)
			}
			if snaps, err := os.ReadDir(filepath.Join(snapdirA, spec.ID)); err != nil || len(snaps) == 0 {
				t.Errorf("source snapshot dir after export: %d entries, err %v", len(snaps), err)
			}

			// Recover the in-flight batch on the target, then finish there.
			pws, err := cB.PendingWork(ctx, spec.ID)
			if err != nil {
				t.Errorf("pending work: %v", err)
				return
			}
			for _, pw := range pws {
				for m, x := range pw.Batch.Points {
					if pw.Received[m] {
						continue
					}
					y, cost := ev.Eval(x)
					if _, err := cB.Tell(ctx, spec.ID, []session.EvalResult{{
						BatchID: pw.Batch.ID, Member: m, Y: y, CostNS: int64(cost),
					}}); err != nil {
						t.Errorf("recovery tell: %v", err)
						return
					}
				}
			}
			for {
				b, done, err := cB.Ask(ctx, spec.ID)
				if err != nil {
					t.Errorf("ask: %v", err)
					return
				}
				if done {
					break
				}
				for m, x := range b.Points {
					y, cost := ev.Eval(x)
					if _, err := cB.Tell(ctx, spec.ID, []session.EvalResult{{
						BatchID: b.ID, Member: m, Y: y, CostNS: int64(cost),
					}}); err != nil {
						t.Errorf("tell: %v", err)
						return
					}
				}
			}
			got, err = cB.Result(ctx, spec.ID)
			if err != nil {
				t.Errorf("result: %v", err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if runErrA != nil || runErrB != nil {
		t.Fatalf("server exit: source %v, target %v", runErrA, runErrB)
	}
	if got == nil {
		t.Fatal("no final result")
	}
	if !reflect.DeepEqual(ref.X, got.X) || !reflect.DeepEqual(ref.Y, got.Y) {
		t.Error("trace diverged across the migration")
	}
	//lint:ignore floatcmp the incumbent must survive migration exactly
	if got.BestY != ref.BestY || !reflect.DeepEqual(ref.BestX, got.BestX) {
		t.Errorf("incumbent %v/%v, want %v/%v", got.BestX, got.BestY, ref.BestX, ref.BestY)
	}
	if got.Cycles != ref.Cycles || got.Evals != ref.Evals {
		t.Errorf("counters (%d,%d), want (%d,%d)", got.Cycles, got.Evals, ref.Cycles, ref.Evals)
	}
}

// TestRunRejectsBadFlags pins the error path: run must fail fast, not
// serve, on unparsable flags.
func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("bad flags accepted")
	}
}

// TestRunResumeFailureAborts: a snapshot root with a session that cannot
// resume (spec present, snapshots missing or unreadable) must abort
// startup — the server never comes up with half its fleet.
func TestRunResumeFailureAborts(t *testing.T) {
	snapdir := t.TempDir()
	dir := filepath.Join(snapdir, "ghost")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := serverSpec()
	spec.ID = "ghost"
	raw := fmt.Sprintf(`{"id":"ghost","problem":{"kind":"benchmark","name":"levy","dim":2},"strategy":%q,"seed":3}`, spec.Strategy)
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-snapdir", snapdir, "-resume"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("startup with unresumable session: err = %v", err)
	}
}
