package session

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/session/snapshot"
	"repro/internal/strategy"
)

var updateDigests = flag.Bool("updatedigests", false, "rewrite the snapshot frame digest file")

// frameDigestFile pins an FNV-64a digest of every snapshot frame a
// session writes, in write order: the 2-D sphere session of every paper
// strategy in both modes, and a mic-q-EGO horizon-2 scenario cell (d=24,
// the constrained two-GP factory) in both modes. The golden .pbosnap
// files check that old frames decode; these check what the encoder
// writes today, so a change that claims the same frames is held to
// every byte of every frame. A change that regenerates the file with
// -updatedigests names every digest it moved, and why.
const frameDigestFile = "testdata/frame_digests.json"

// frameDigests is the on-disk form: the architecture the digests hold
// for, and per session the digest and the number of frames it covers.
type frameDigests struct {
	Arch    string                 `json:"arch"`
	Digests map[string]frameDigest `json:"digests"`
}

type frameDigest struct {
	Frames int    `json:"frames"`
	FNV64a string `json:"fnv64a"`
}

// scenarioCellEngine is the horizon-2 scenario cell: the engine the
// serving tier builds for a scenario session spec.
func scenarioCellEngine(t *testing.T, mode string) *core.Engine {
	t.Helper()
	spec := &scenario.DaySpec{
		Gen:     scenario.GenConfig{Seed: 5, Members: 2},
		Member:  1,
		Day:     2,
		Horizon: 2,
	}
	e, _, err := spec.Engine(scenario.OptConfig{
		Strategy:    "mic-q-EGO",
		Mode:        mode,
		BatchSize:   4,
		InitSamples: 64,
		MaxCycles:   4,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// digestFrames drives a session to completion with every snapshot kept
// and folds its frames, oldest first, into one digest.
func digestFrames(t *testing.T, e *core.Engine) frameDigest {
	t.Helper()
	store := &snapshot.Store{Dir: filepath.Join(t.TempDir(), "snaps"), Keep: 1 << 20}
	s, err := New(Config{ID: "digest", Engine: e, Store: store, Now: detNow()})
	if err != nil {
		t.Fatal(err)
	}
	if e.Mode == core.Asynchronous {
		driveAsyncSession(t, e, s, -1)
	} else {
		driveToDone(t, e, s)
	}
	paths, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for _, p := range paths {
		frame, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range frame {
			h ^= uint64(b)
			h *= 1099511628211 // FNV-64 prime
		}
	}
	return frameDigest{Frames: len(paths), FNV64a: fmt.Sprintf("%016x", h)}
}

// TestSnapshotFrameDigests is the byte-identity gate of the snapshot
// encoder. The digests are for amd64, as the paper-workload digests
// are: arm64 may fuse x·y+z into one rounding, which moves bits
// legitimately.
func TestSnapshotFrameDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded for amd64, not %s", runtime.GOARCH)
	}
	got := map[string]frameDigest{}
	for _, mode := range []string{"sync", "async"} {
		for _, name := range strategy.Names {
			e := testEngine(t, name)
			if mode == "async" {
				e.Mode = core.Asynchronous
			}
			got["sphere/"+name+"/"+mode] = digestFrames(t, e)
		}
		got["scenario-h2/mic-q-EGO/"+mode] = digestFrames(t, scenarioCellEngine(t, mode))
	}
	if *updateDigests {
		data, err := json.MarshalIndent(frameDigests{Arch: runtime.GOARCH, Digests: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frameDigestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(frameDigestFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -updatedigests)", err)
	}
	var want frameDigests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Arch != runtime.GOARCH {
		t.Fatalf("digest file is for %s, running on %s", want.Arch, runtime.GOARCH)
	}
	if len(want.Digests) != len(got) {
		t.Fatalf("digest file has %d sessions, want %d", len(want.Digests), len(got))
	}
	for name, g := range got {
		if g != want.Digests[name] {
			t.Errorf("%s: %d frames digest %s, want %d frames digest %s (frames moved)",
				name, g.Frames, g.FNV64a, want.Digests[name].Frames, want.Digests[name].FNV64a)
		}
	}
}
