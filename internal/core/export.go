package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// resultJSON is the serialized form of a Result. Durations are stored in
// seconds for toolchain-agnostic consumption.
type resultJSON struct {
	Problem   string        `json:"problem"`
	Strategy  string        `json:"strategy"`
	Batch     int           `json:"batch"`
	BestX     []float64     `json:"best_x"`
	BestY     float64       `json:"best_y"`
	Cycles    int           `json:"cycles"`
	Evals     int           `json:"evals"`
	InitEvals int           `json:"init_evals"`
	Fallbacks int           `json:"fallbacks,omitempty"`
	VirtualS  float64       `json:"virtual_seconds"`
	History   []historyJSON `json:"history"`
	X         [][]float64   `json:"x"`
	Y         []float64     `json:"y"`
}

type historyJSON struct {
	Cycle          int     `json:"cycle"`
	Evals          int     `json:"evals"`
	BestY          float64 `json:"best_y"`
	VirtualS       float64 `json:"virtual_seconds"`
	FitS           float64 `json:"fit_seconds"`
	AcqS           float64 `json:"acq_seconds"`
	EvalS          float64 `json:"eval_seconds"`
	Fallback       bool    `json:"fallback,omitempty"`
	FallbackReason string  `json:"fallback_reason,omitempty"`
}

// WriteJSON serializes the result, including the full evaluation trace and
// per-cycle history, so runs can be archived and re-analyzed without
// rerunning the optimization.
func (r *Result) WriteJSON(w io.Writer) error {
	out := resultJSON{
		Problem: r.Problem, Strategy: r.Strategy, Batch: r.Batch,
		BestX: r.BestX, BestY: r.BestY,
		Cycles: r.Cycles, Evals: r.Evals, InitEvals: r.InitEvals,
		Fallbacks: r.Fallbacks,
		VirtualS:  r.Virtual.Seconds(),
		X:         r.X, Y: r.Y,
	}
	for _, h := range r.History {
		out.History = append(out.History, historyJSON{
			Cycle: h.Cycle, Evals: h.Evals, BestY: h.BestY,
			VirtualS:       h.Virtual.Seconds(),
			FitS:           h.FitTime.Seconds(),
			AcqS:           h.AcqTime.Seconds(),
			EvalS:          h.EvalTime.Seconds(),
			Fallback:       h.Fallback,
			FallbackReason: h.FallbackReason,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadResultJSON deserializes a result written by WriteJSON.
func ReadResultJSON(r io.Reader) (*Result, error) {
	var in resultJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decode result: %w", err)
	}
	out := &Result{
		Problem: in.Problem, Strategy: in.Strategy, Batch: in.Batch,
		BestX: in.BestX, BestY: in.BestY,
		Cycles: in.Cycles, Evals: in.Evals, InitEvals: in.InitEvals,
		Fallbacks: in.Fallbacks,
		Virtual:   time.Duration(in.VirtualS * float64(time.Second)),
		X:         in.X, Y: in.Y,
	}
	for _, h := range in.History {
		out.History = append(out.History, CycleRecord{
			Cycle: h.Cycle, Evals: h.Evals, BestY: h.BestY,
			Virtual:        time.Duration(h.VirtualS * float64(time.Second)),
			FitTime:        time.Duration(h.FitS * float64(time.Second)),
			AcqTime:        time.Duration(h.AcqS * float64(time.Second)),
			EvalTime:       time.Duration(h.EvalS * float64(time.Second)),
			Fallback:       h.Fallback,
			FallbackReason: h.FallbackReason,
		})
	}
	return out, nil
}
