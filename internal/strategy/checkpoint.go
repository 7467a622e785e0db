package strategy

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// This file implements core.StrategyCheckpointer for the strategies whose
// behavior depends on state accumulated across cycles. KB-q-EGO, mic-EGO
// and MC-based q-EGO derive each proposal purely from (model, state,
// stream) and need no codec; TuRBO carries its trust-region geometry and
// BSP-EGO its space partition. Every codec round-trips through
// encoding/json (float64 survives exactly), so a resumed run replays the
// uninterrupted run bit-for-bit — the property the kill-and-resume tests
// pin per strategy.

// ErrStrategyState reports a malformed serialized strategy state.
var ErrStrategyState = errors.New("strategy: invalid checkpoint state")

// turboState is TuRBO's serialized trust-region state.
type turboState struct {
	Length    float64 `json:"length"`
	Succ      int     `json:"succ"`
	Fail      int     `json:"fail"`
	HaveState bool    `json:"have_state"`
}

// StrategyState implements core.StrategyCheckpointer.
func (s *TuRBO) StrategyState() ([]byte, error) {
	return json.Marshal(&turboState{Length: s.length, Succ: s.succ, Fail: s.fail, HaveState: s.haveState})
}

// RestoreStrategyState implements core.StrategyCheckpointer.
func (s *TuRBO) RestoreStrategyState(data []byte) error {
	var st turboState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: turbo: %v", ErrStrategyState, err)
	}
	if st.HaveState && !(st.Length > 0) || math.IsNaN(st.Length) || math.IsInf(st.Length, 0) {
		return fmt.Errorf("%w: turbo length %v", ErrStrategyState, st.Length)
	}
	if st.Succ < 0 || st.Fail < 0 {
		return fmt.Errorf("%w: turbo counters (%d, %d)", ErrStrategyState, st.Succ, st.Fail)
	}
	s.length, s.succ, s.fail, s.haveState = st.Length, st.Succ, st.Fail, st.HaveState
	return nil
}

// bspNodeState is the serialized form of one partition-tree node. Only the
// geometry is captured: every Propose rewrites all leaf scores and
// candidates before reading them, so scores carry no information across
// cycles.
type bspNodeState struct {
	Lo    []float64     `json:"lo"`
	Hi    []float64     `json:"hi"`
	Left  *bspNodeState `json:"left,omitempty"`
	Right *bspNodeState `json:"right,omitempty"`
}

// bspState is BSP-EGO's serialized partition.
type bspState struct {
	Root *bspNodeState `json:"root,omitempty"`
}

// StrategyState implements core.StrategyCheckpointer.
func (s *BSPEGO) StrategyState() ([]byte, error) {
	return json.Marshal(&bspState{Root: encodeBSPNode(s.root)})
}

func encodeBSPNode(n *bspNode) *bspNodeState {
	if n == nil {
		return nil
	}
	return &bspNodeState{
		Lo:    mat.CloneVec(n.lo),
		Hi:    mat.CloneVec(n.hi),
		Left:  encodeBSPNode(n.left),
		Right: encodeBSPNode(n.right),
	}
}

// RestoreStrategyState implements core.StrategyCheckpointer.
func (s *BSPEGO) RestoreStrategyState(data []byte) error {
	var st bspState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: bsp-ego: %v", ErrStrategyState, err)
	}
	root, err := decodeBSPNode(st.Root, nil)
	if err != nil {
		return fmt.Errorf("%w: bsp-ego: %v", ErrStrategyState, err)
	}
	s.root = root
	s.leaves = nil
	if s.root != nil {
		s.refreshLeaves()
	}
	return nil
}

func decodeBSPNode(st *bspNodeState, parent *bspNode) (*bspNode, error) {
	if st == nil {
		return nil, nil
	}
	if len(st.Lo) == 0 || len(st.Lo) != len(st.Hi) {
		return nil, fmt.Errorf("node bounds (%d, %d)", len(st.Lo), len(st.Hi))
	}
	for j := range st.Lo {
		if !(st.Lo[j] < st.Hi[j]) {
			return nil, fmt.Errorf("node bounds[%d] = [%v, %v]", j, st.Lo[j], st.Hi[j])
		}
	}
	if (st.Left == nil) != (st.Right == nil) {
		return nil, errors.New("node with exactly one child")
	}
	n := &bspNode{lo: mat.CloneVec(st.Lo), hi: mat.CloneVec(st.Hi), parent: parent}
	var err error
	if n.left, err = decodeBSPNode(st.Left, n); err != nil {
		return nil, err
	}
	if n.right, err = decodeBSPNode(st.Right, n); err != nil {
		return nil, err
	}
	return n, nil
}
