package core

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// This file implements the snapshot v3 split encoding for Checkpoint:
// a JSON shell carrying everything small, plus ordered binary float64
// sections carrying the bulk numeric state. The section order is fixed
// and self-describing against the shell:
//
//	[0] design matrix, row-major flat (DesignRows × Dim)
//	[1] observation matrix X, row-major flat (XRows × Dim)
//	[2] observation vector Y
//	[3] incumbent BestX (empty when absent)
//	[4] history, histWords values per CycleRecord:
//	    cycle, evals, bestY, virtual, fit, acq, eval — ints and
//	    durations bit-packed losslessly through Float64frombits
//	[5+] one section per pending batch, points row-major flat
//
// The shell/section split is structural (snapshot.SectionCodec is a
// structural interface), so this package does not import the snapshot
// package. Integer and duration values ride the float64 sections as raw
// bit patterns, not numeric conversions: every int64 round-trips
// exactly, where a float64 conversion would lose precision past 2^53.

const fixedSections = 5

// histWords is the packed width of one CycleRecord in section 4.
const histWords = 7

// checkpointShell is the JSON side of the split: Checkpoint minus the
// bulk float64 data, plus the row counts needed to rebuild the matrices
// from their flat sections. Fallback cycles are sparse in practice, so
// their string reasons live here keyed by history index instead of
// widening every packed record.
type checkpointShell struct {
	Problem  string `json:"problem"`
	Strategy string `json:"strategy"`
	Batch    int    `json:"batch"`
	Seed     uint64 `json:"seed"`
	Mode     int    `json:"mode,omitempty"`

	ClockNS          int64 `json:"clock_ns"`
	Cycle            int   `json:"cycle"`
	Recorded         int   `json:"recorded"`
	FantasyFallbacks int   `json:"fantasy_fallbacks,omitempty"`

	Dim         int `json:"dim"`
	DesignRows  int `json:"design_rows"`
	DesignAsked int `json:"design_asked"`
	DesignTold  int `json:"design_told"`

	XRows     int               `json:"x_rows"`
	BestY     float64           `json:"best_y"`
	HaveBest  bool              `json:"have_best"`
	InitEvals int               `json:"init_evals"`
	Fallbacks int               `json:"fallbacks"`
	HistFalls []historyFallback `json:"hist_fallbacks,omitempty"`
	Pending   []pendingShell    `json:"pending,omitempty"`
	NextID    int               `json:"next_id"`

	DesignStream []byte `json:"design_stream"`
	AcqStream    []byte `json:"acq_stream"`
	JitterStream []byte `json:"jitter_stream"`
	FitStream    []byte `json:"fit_stream"`

	FactoryState  []byte `json:"factory_state,omitempty"`
	StrategyState []byte `json:"strategy_state,omitempty"`
}

// historyFallback records the fallback flag and reason of one history
// record, keyed by its index in the packed history section.
type historyFallback struct {
	Index    int    `json:"index"`
	Fallback bool   `json:"fallback"`
	Reason   string `json:"reason,omitempty"`
}

// pendingShell is PendingCheckpoint minus its points, which ride section
// fixedSections+i for the i-th entry.
type pendingShell struct {
	ID       int           `json:"id"`
	Cycle    int           `json:"cycle"`
	Rows     int           `json:"rows"`
	FitNS    time.Duration `json:"fit_ns"`
	AcqNS    time.Duration `json:"acq_ns"`
	Fallback bool          `json:"fallback,omitempty"`
	Reason   string        `json:"reason,omitempty"`
	StartNS  time.Duration `json:"start_ns,omitempty"`
}

// dim returns the shared point dimensionality of the checkpoint's
// matrices, 0 when it holds no points at all.
func (c *Checkpoint) dim() int {
	if len(c.Design) > 0 {
		return len(c.Design[0])
	}
	if len(c.X) > 0 {
		return len(c.X[0])
	}
	for _, pc := range c.Pending {
		if len(pc.Points) > 0 {
			return len(pc.Points[0])
		}
	}
	return 0
}

// flattenMatrix appends xs row-major to dst.
func flattenMatrix(dst []float64, xs [][]float64) []float64 {
	for _, row := range xs {
		dst = append(dst, row...)
	}
	return dst
}

// bitsOf packs a signed integer value into a float64 slot losslessly.
func bitsOf(v int64) float64 { return math.Float64frombits(uint64(v)) }

// intOf is the inverse of bitsOf.
func intOf(f float64) int64 { return int64(math.Float64bits(f)) }

// MarshalSections implements the snapshot v3 split encoding
// (snapshot.SectionCodec, structurally).
func (c *Checkpoint) MarshalSections() ([]byte, [][]float64, error) {
	dim := c.dim()
	shell := checkpointShell{
		Problem:  c.Problem,
		Strategy: c.Strategy,
		Batch:    c.Batch,
		Seed:     c.Seed,
		Mode:     c.Mode,

		ClockNS:          c.ClockNS,
		Cycle:            c.Cycle,
		Recorded:         c.Recorded,
		FantasyFallbacks: c.FantasyFallbacks,

		Dim:         dim,
		DesignRows:  len(c.Design),
		DesignAsked: c.DesignAsked,
		DesignTold:  c.DesignTold,

		XRows:     len(c.X),
		BestY:     c.BestY,
		HaveBest:  c.HaveBest,
		InitEvals: c.InitEvals,
		Fallbacks: c.Fallbacks,
		NextID:    c.NextID,

		DesignStream: c.DesignStream,
		AcqStream:    c.AcqStream,
		JitterStream: c.JitterStream,
		FitStream:    c.FitStream,

		FactoryState:  c.FactoryState,
		StrategyState: c.StrategyState,
	}
	for i, r := range c.History {
		if r.Fallback || r.FallbackReason != "" {
			shell.HistFalls = append(shell.HistFalls, historyFallback{
				Index: i, Fallback: r.Fallback, Reason: r.FallbackReason,
			})
		}
	}
	sections := make([][]float64, 0, fixedSections+len(c.Pending))
	sections = append(sections,
		flattenMatrix(make([]float64, 0, len(c.Design)*dim), c.Design),
		flattenMatrix(make([]float64, 0, len(c.X)*dim), c.X),
		c.Y,
		c.BestX,
	)
	hist := make([]float64, 0, histWords*len(c.History))
	for _, r := range c.History {
		hist = append(hist,
			bitsOf(int64(r.Cycle)), bitsOf(int64(r.Evals)), r.BestY,
			bitsOf(int64(r.Virtual)), bitsOf(int64(r.FitTime)),
			bitsOf(int64(r.AcqTime)), bitsOf(int64(r.EvalTime)))
	}
	sections = append(sections, hist)
	for _, pc := range c.Pending {
		shell.Pending = append(shell.Pending, pendingShell{
			ID: pc.ID, Cycle: pc.Cycle, Rows: len(pc.Points),
			FitNS: pc.FitNS, AcqNS: pc.AcqNS,
			Fallback: pc.Fallback, Reason: pc.Reason, StartNS: pc.StartNS,
		})
		sections = append(sections, flattenMatrix(make([]float64, 0, len(pc.Points)*dim), pc.Points))
	}
	data, err := json.Marshal(&shell)
	if err != nil {
		return nil, nil, err
	}
	return data, sections, nil
}

// unflattenMatrix rebuilds a rows×cols matrix whose rows alias the flat
// section backing — one slice-header array instead of an allocation per
// row. Safe because ResumeAskTell deep-clones every checkpoint matrix it
// takes. A zero-row matrix decodes to nil, matching the nil the encoder
// saw (cloneMatrix preserves nil). rows and cols come from the frame's
// JSON shell, so they are held to the section's length before rows sizes
// an allocation: a negative count, or rows of width 0, is corrupt.
func unflattenMatrix(flat []float64, rows, cols int) ([][]float64, error) {
	if rows < 0 || cols < 0 || rows > 0 && (cols == 0 || rows > len(flat)/cols) || rows*cols != len(flat) {
		return nil, fmt.Errorf("core: section holds %d values, want %d×%d", len(flat), rows, cols)
	}
	if rows == 0 {
		return nil, nil
	}
	out := make([][]float64, rows)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out, nil
}

// UnmarshalSections implements the snapshot v3 split decoding
// (snapshot.SectionCodec, structurally). The rebuilt checkpoint is
// equivalent to the encoded one: matrices alias section backings rather
// than owning per-row allocations, and zero-length sections decode to
// nil slices, both of which every consumer (ResumeAskTell) is
// indifferent to.
func (c *Checkpoint) UnmarshalSections(shell []byte, sections [][]float64) error {
	var sh checkpointShell
	if err := json.Unmarshal(shell, &sh); err != nil {
		return fmt.Errorf("core: checkpoint shell: %w", err)
	}
	if len(sections) != fixedSections+len(sh.Pending) {
		return fmt.Errorf("core: checkpoint frame has %d sections, shell describes %d", len(sections), fixedSections+len(sh.Pending))
	}
	design, err := unflattenMatrix(sections[0], sh.DesignRows, sh.Dim)
	if err != nil {
		return fmt.Errorf("core: design section: %w", err)
	}
	x, err := unflattenMatrix(sections[1], sh.XRows, sh.Dim)
	if err != nil {
		return fmt.Errorf("core: x section: %w", err)
	}
	histFlat := sections[4]
	if len(histFlat)%histWords != 0 {
		return fmt.Errorf("core: history section holds %d values, not a multiple of %d", len(histFlat), histWords)
	}
	var history []CycleRecord
	if n := len(histFlat) / histWords; n > 0 {
		history = make([]CycleRecord, n)
		for i := range history {
			w := histFlat[i*histWords:]
			history[i] = CycleRecord{
				Cycle:    int(intOf(w[0])),
				Evals:    int(intOf(w[1])),
				BestY:    w[2],
				Virtual:  time.Duration(intOf(w[3])),
				FitTime:  time.Duration(intOf(w[4])),
				AcqTime:  time.Duration(intOf(w[5])),
				EvalTime: time.Duration(intOf(w[6])),
			}
		}
	}
	for _, hf := range sh.HistFalls {
		if hf.Index < 0 || hf.Index >= len(history) {
			return fmt.Errorf("core: history fallback index %d outside %d records", hf.Index, len(history))
		}
		history[hf.Index].Fallback = hf.Fallback
		history[hf.Index].FallbackReason = hf.Reason
	}
	var pending []PendingCheckpoint
	if len(sh.Pending) > 0 {
		pending = make([]PendingCheckpoint, len(sh.Pending))
		for i, ps := range sh.Pending {
			points, err := unflattenMatrix(sections[fixedSections+i], ps.Rows, sh.Dim)
			if err != nil {
				return fmt.Errorf("core: pending batch %d section: %w", ps.ID, err)
			}
			pending[i] = PendingCheckpoint{
				ID: ps.ID, Cycle: ps.Cycle, Points: points,
				FitNS: ps.FitNS, AcqNS: ps.AcqNS,
				Fallback: ps.Fallback, Reason: ps.Reason, StartNS: ps.StartNS,
			}
		}
	}
	y := sections[2]
	if len(y) == 0 {
		y = nil
	}
	bestX := sections[3]
	if len(bestX) == 0 {
		bestX = nil
	}
	*c = Checkpoint{
		Problem:  sh.Problem,
		Strategy: sh.Strategy,
		Batch:    sh.Batch,
		Seed:     sh.Seed,
		Mode:     sh.Mode,

		ClockNS:          sh.ClockNS,
		Cycle:            sh.Cycle,
		Recorded:         sh.Recorded,
		FantasyFallbacks: sh.FantasyFallbacks,

		Design:      design,
		DesignAsked: sh.DesignAsked,
		DesignTold:  sh.DesignTold,

		X:         x,
		Y:         y,
		BestX:     bestX,
		BestY:     sh.BestY,
		HaveBest:  sh.HaveBest,
		InitEvals: sh.InitEvals,
		Fallbacks: sh.Fallbacks,
		History:   history,

		DesignStream: sh.DesignStream,
		AcqStream:    sh.AcqStream,
		JitterStream: sh.JitterStream,
		FitStream:    sh.FitStream,

		FactoryState:  sh.FactoryState,
		StrategyState: sh.StrategyState,

		Pending: pending,
		NextID:  sh.NextID,
	}
	return nil
}
