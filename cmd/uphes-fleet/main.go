// Command uphes-fleet runs the scenario engine: a rolling-horizon UPHES
// dispatch fleet over a deterministic price/inflow ensemble, one
// constrained Bayesian-optimization session per ensemble member, and a
// revenue-distribution report with percentile summaries.
//
// By default the fleet solves in-process. With -server it drives a
// running pboserver instead: every (member, day) cell becomes a session
// with a deterministic ID, so a killed fleet resumes by re-running the
// same command — completed days replay from snapshots, in-flight days
// re-attach to the server's live state.
//
// Usage:
//
//	uphes-fleet [-members 8] [-days 30] [-horizon 2] [-strategy mic-q-EGO]
//	            [-mode sync] [-batch 4] [-init 0] [-cycles 8] [-seed 1]
//	            [-parallel 1] [-server URL] [-fleet-id fleet] [-latency 10s]
//	            [-out report.json] [-list] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/strategy"
)

// usageErr reports a command-line validation failure and exits with the
// flag package's usage status.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "uphes-fleet: %s\n", fmt.Sprintf(format, args...))
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("uphes-fleet: ")
	var (
		members      = flag.Int("members", 8, "ensemble members (one session per member)")
		days         = flag.Int("days", 30, "operational days rolled per member")
		horizon      = flag.Int("horizon", 2, "look-ahead days optimized jointly per step")
		strategyName = flag.String("strategy", "mic-q-EGO", "batch acquisition process (see -list)")
		mode         = flag.String("mode", "sync", `engine scheduling: "sync" or "async"`)
		batch        = flag.Int("batch", 4, "batch size q (async: in-flight cap)")
		initSamples  = flag.Int("init", 0, "initial design size per day (0 = engine default)")
		cycles       = flag.Int("cycles", 8, "BO cycles per day")
		seed         = flag.Uint64("seed", 1, "fleet master seed")
		par          = flag.Int("parallel", 1, "members run concurrently")
		server       = flag.String("server", "", "pboserver base URL (empty: solve in-process)")
		fleetID      = flag.String("fleet-id", "fleet", "session ID prefix on the server")
		latency      = flag.Duration("latency", 10*time.Second, "simulated per-evaluation latency")
		out          = flag.String("out", "", "write the full JSON report to this file")
		list         = flag.Bool("list", false, "list available strategies and exit")
		verbose      = flag.Bool("v", false, "print per-member day trajectories")
	)
	flag.Parse()

	if *list {
		for _, s := range pbo.Strategies() {
			fmt.Println(s)
		}
		return
	}
	if *members <= 0 {
		usageErr("member count must be positive, got %d", *members)
	}
	if *days <= 0 {
		usageErr("day count must be positive, got %d", *days)
	}
	if *horizon <= 0 {
		usageErr("horizon must be positive, got %d", *horizon)
	}
	if *batch <= 0 {
		usageErr("batch size must be positive, got %d", *batch)
	}
	if *cycles <= 0 {
		usageErr("cycle count must be positive, got %d", *cycles)
	}
	if _, err := core.ParseMode(*mode); err != nil {
		usageErr("%v", err)
	}
	if _, err := strategy.ByName(*strategyName); err != nil {
		usageErr("unknown strategy %q (valid: %s)", *strategyName, strings.Join(pbo.Strategies(), ", "))
	}

	cfg := scenario.FleetConfig{
		Gen:     scenario.GenConfig{Seed: *seed, Members: *members},
		Days:    *days,
		Horizon: *horizon,
		Opt: scenario.OptConfig{
			Strategy:    *strategyName,
			Mode:        *mode,
			BatchSize:   *batch,
			InitSamples: *initSamples,
			MaxCycles:   *cycles,
			Seed:        *seed,
		},
		SimLatency: *latency,
		Parallel:   *par,
	}
	var runner scenario.DayRunner = scenario.LocalRunner{}
	where := "in-process"
	if *server != "" {
		runner = &serve.FleetRunner{
			Client:  &serve.Client{BaseURL: *server},
			FleetID: *fleetID,
			Evict:   true,
		}
		where = *server
	}

	fmt.Printf("Fleet: %d members × %d days, horizon %d, %s/%s q=%d cycles=%d (%s)\n",
		*members, *days, *horizon, *strategyName, *mode, *batch, *cycles, where)
	start := time.Now()
	fleet := &scenario.Fleet{Cfg: cfg, Runner: runner}
	rep, err := fleet.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Completed in %v.\n\n", time.Since(start).Round(time.Millisecond))

	if *verbose {
		for _, mr := range rep.PerMember {
			fmt.Printf("member %d: revenue %.2f EUR, %d violating, %d fallback\n",
				mr.Member, mr.Revenue, mr.ViolatingDays, mr.Fallbacks)
			for _, d := range mr.Days {
				fmt.Printf("  day %3d: profit %10.2f  best %10.2f  switches %d  fill %.3f\n",
					d.Day, d.Profit, d.BestY, d.Switches, d.EndUpperFill)
			}
		}
		fmt.Println()
	}
	fmt.Print(rep.Summary())

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", *out)
	}
}
