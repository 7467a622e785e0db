package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type payload struct {
	Name string    `json:"name"`
	Seq  int       `json:"seq"`
	Xs   []float64 `json:"xs"`
}

// secPayload exercises the SectionCodec path: a JSON shell naming the
// payload plus opaque binary float64 sections.
type secPayload struct {
	Name     string
	Sections [][]float64
}

type secShell struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

func (p *secPayload) MarshalSections() ([]byte, [][]float64, error) {
	shell, err := json.Marshal(secShell{Name: p.Name, N: len(p.Sections)})
	return shell, p.Sections, err
}

func (p *secPayload) UnmarshalSections(shell []byte, sections [][]float64) error {
	var sh secShell
	if err := json.Unmarshal(shell, &sh); err != nil {
		return err
	}
	if len(sections) != sh.N {
		return fmt.Errorf("shell describes %d sections, frame has %d", sh.N, len(sections))
	}
	p.Name, p.Sections = sh.Name, sections
	return nil
}

// legacyFrame frames v's whole JSON document as the payload under the
// given format version — the v1/v2 layout, which had no shell/section
// split. The golden decode tests use it to stand in for frames written
// by retired builds.
func legacyFrame(t *testing.T, version uint32, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, headerSize+len(body))
	copy(frame, magic)
	binary.BigEndian.PutUint32(frame[8:], version)
	binary.BigEndian.PutUint64(frame[12:], uint64(len(body)))
	binary.BigEndian.PutUint32(frame[20:], crc32.ChecksumIEEE(body))
	copy(frame[headerSize:], body)
	return frame
}

// reframe rewrites a frame's payload through mutate and recomputes the
// declared length and checksum, so Decode sees a frame that passes the
// CRC but may be structurally inconsistent inside — the corruption class
// the v3 section parser must catch on its own.
func reframe(frame []byte, mutate func([]byte) []byte) []byte {
	p := mutate(append([]byte(nil), frame[headerSize:]...))
	out := make([]byte, headerSize+len(p))
	copy(out, frame[:headerSize])
	binary.BigEndian.PutUint64(out[12:], uint64(len(p)))
	binary.BigEndian.PutUint32(out[20:], crc32.ChecksumIEEE(p))
	copy(out[headerSize:], p)
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	in := payload{Name: "run-1", Seq: 42, Xs: []float64{1.5, -2.25, 0.1}}
	frame, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(frame, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Seq != in.Seq || len(out.Xs) != len(in.Xs) {
		t.Fatalf("round trip: %+v", out)
	}
	for i := range in.Xs {
		//lint:ignore floatcmp JSON float64 round-trips must be exact
		if out.Xs[i] != in.Xs[i] {
			t.Fatalf("x[%d] = %v, want %v", i, out.Xs[i], in.Xs[i])
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	frame, err := Encode(&payload{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}

	short := frame[:headerSize-1]
	badMagic := append([]byte(nil), frame...)
	badMagic[0] = 'X'
	badVersion := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(badVersion[8:], Version+1)
	truncated := frame[:len(frame)-3]
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0xff

	cases := map[string][]byte{
		"empty":        nil,
		"short":        short,
		"bad magic":    badMagic,
		"future ver":   badVersion,
		"truncated":    truncated,
		"bit flip":     flipped,
		"text garbage": []byte("PBOSNAP\x00 but definitely not a frame body at all"),
	}
	for name, data := range cases {
		var out payload
		if err := Decode(data, &out); err == nil {
			t.Errorf("%s: corrupt frame accepted", name)
		}
	}

	// The version error is the ErrVersion sentinel, not ErrCorrupt: the
	// two demand opposite recovery (fail loudly vs fall back).
	var out payload
	if err := Decode(badVersion, &out); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
	if err := Decode(badVersion, &out); errors.Is(err, ErrCorrupt) {
		t.Error("future version reported as corruption rather than a version mismatch")
	}
}

// TestDecodeReadsAllSupportedVersions: frames written by every format
// version since minVersion still decode. v1/v2 frames carry a single
// JSON document (built here by legacyFrame, standing in for frames from
// retired builds); the current Encode writes the v3 split layout.
// Versions outside [minVersion, Version] are rejected with ErrVersion.
func TestDecodeReadsAllSupportedVersions(t *testing.T) {
	in := payload{Name: "old-run", Seq: 7, Xs: []float64{0.5}}
	current, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	frames := map[uint32][]byte{
		1:       legacyFrame(t, 1, &in),
		2:       legacyFrame(t, 2, &in),
		Version: current,
	}
	for v := uint32(minVersion); v <= Version; v++ {
		f, ok := frames[v]
		if !ok {
			t.Fatalf("no frame fixture for version %d", v)
		}
		var out payload
		if err := Decode(f, &out); err != nil {
			t.Errorf("version %d frame rejected: %v", v, err)
		} else if out.Name != in.Name || out.Seq != in.Seq {
			t.Errorf("version %d frame decoded to %+v", v, out)
		}
	}
	for _, v := range []uint32{minVersion - 1, Version + 1} {
		var out payload
		if err := Decode(legacyFrame(t, v, &in), &out); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: err = %v, want ErrVersion", v, err)
		}
	}
}

// TestSectionRoundTrip: a SectionCodec payload's binary sections survive
// the frame bit-exactly, including non-finite values and raw bit
// patterns smuggled through Float64frombits — the encoding is bits, not
// numbers.
func TestSectionRoundTrip(t *testing.T) {
	in := secPayload{
		Name: "sections",
		Sections: [][]float64{
			{1.5, -2.25, 1e-308, math.Copysign(0, -1)},
			nil,
			{math.Inf(1), math.Inf(-1)},
		},
	}
	frame, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out secPayload
	if err := Decode(frame, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.Sections) != len(in.Sections) {
		t.Fatalf("round trip: %+v", out)
	}
	for i := range in.Sections {
		want := in.Sections[i]
		if len(want) == 0 {
			if out.Sections[i] != nil {
				t.Fatalf("section %d: empty section decoded non-nil", i)
			}
			continue
		}
		if !reflect.DeepEqual(out.Sections[i], want) {
			t.Fatalf("section %d = %v, want %v", i, out.Sections[i], want)
		}
	}

	// A frame carrying sections cannot decode into a plain-JSON value.
	var plain payload
	if err := Decode(frame, &plain); err == nil {
		t.Fatal("sectioned frame decoded into a non-SectionCodec value")
	}
}

// TestDecodeV3RejectsInconsistentSections: structural inconsistencies
// inside a v3 payload that still passes the CRC — the shapes a buggy
// writer or a partially overwritten file could produce — must surface
// as ErrCorrupt, never a panic or a silent misparse.
func TestDecodeV3RejectsInconsistentSections(t *testing.T) {
	frame, err := Encode(&secPayload{Name: "x", Sections: [][]float64{{1, 2, 3}, {4}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"shell length overruns payload": func(p []byte) []byte {
			binary.BigEndian.PutUint32(p, uint32(len(p)))
			return p
		},
		"section data truncated": func(p []byte) []byte {
			return p[:len(p)-8]
		},
		"section count overruns payload": func(p []byte) []byte {
			slen := binary.BigEndian.Uint32(p)
			binary.BigEndian.PutUint32(p[4+slen:], 7)
			return p
		},
		"section count 2^32-1 under an empty shell": func([]byte) []byte {
			return []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
		},
		"trailing bytes after sections": func(p []byte) []byte {
			return append(p, 0xde, 0xad)
		},
		"payload shorter than shell length field": func(p []byte) []byte {
			return p[:2]
		},
	}
	for name, mutate := range cases {
		var out secPayload
		if err := Decode(reframe(frame, mutate), &out); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestStoreSaveLoadLatest(t *testing.T) {
	st := &Store{Dir: filepath.Join(t.TempDir(), "snaps")}
	if _, err := st.LoadLatest(&payload{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store: err = %v, want ErrNoSnapshot", err)
	}

	for i := 1; i <= 3; i++ {
		if _, err := st.Save(&payload{Name: "run", Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	var got payload
	path, err := st.LoadLatest(&got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 {
		t.Fatalf("latest seq = %d, want 3", got.Seq)
	}
	if filepath.Base(path) != "snap-00000003"+fileExt {
		t.Fatalf("latest path = %s", path)
	}
}

func TestStoreRetention(t *testing.T) {
	st := &Store{Dir: t.TempDir(), Keep: 3}
	for i := 1; i <= 7; i++ {
		if _, err := st.Save(&payload{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("retained %d snapshots, want 3: %v", len(paths), paths)
	}
	// Retained files are the newest, and sequence numbers keep rising
	// across pruning (snapshot 7 is snap-00000007, not recycled).
	if filepath.Base(paths[len(paths)-1]) != "snap-00000007"+fileExt {
		t.Fatalf("newest = %s", paths[len(paths)-1])
	}
	var got payload
	if _, err := st.LoadLatest(&got); err != nil || got.Seq != 7 {
		t.Fatalf("latest = %d (%v), want 7", got.Seq, err)
	}
}

func TestStoreFallsBackPastCorruptFiles(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	for i := 1; i <= 3; i++ {
		if _, err := st.Save(&payload{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest (bit flip) and truncate the middle one — the
	// torn-write shapes a crash can leave behind.
	newest := paths[2]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mid, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], mid[:len(mid)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var got payload
	from, err := st.LoadLatest(&got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 || from != paths[0] {
		t.Fatalf("fell back to seq %d (%s), want 1 (%s)", got.Seq, from, paths[0])
	}

	// All corrupt: ErrNoSnapshot with the newest failure attached.
	if err := os.WriteFile(paths[0], []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadLatest(&got); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all-corrupt store: err = %v, want ErrNoSnapshot", err)
	}
}

// TestLoadLatestFailsLoudOnUnsupportedVersion: a newest frame from a
// format version this build does not read is a healthy snapshot, not a
// torn write — LoadLatest must surface ErrVersion instead of silently
// resuming from an older frame and rewinding the session.
func TestLoadLatestFailsLoudOnUnsupportedVersion(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	for i := 1; i <= 2; i++ {
		if _, err := st.Save(&payload{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the newest with a structurally valid frame claiming a
	// future format version (the header is outside the CRC, so a real
	// future frame looks exactly like this to the current parser).
	future := legacyFrame(t, Version+1, &payload{Seq: 99})
	if err := os.WriteFile(paths[1], future, 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	_, err = st.LoadLatest(&got)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion (no fallback to seq 1)", err)
	}
	if errors.Is(err, ErrNoSnapshot) {
		t.Fatal("version failure misreported as an empty store")
	}
}

// TestSaveEncodedPruneBestEffort: once the new frame is durably on disk
// the save has succeeded; a pruning failure must not turn it into a
// reported failure (the caller would skip counting a snapshot that
// exists). An unremovable old snapshot stays behind and is retried by
// the next save's prune pass.
func TestSaveEncodedPruneBestEffort(t *testing.T) {
	st := &Store{Dir: t.TempDir(), Keep: 1}
	if _, err := st.Save(&payload{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Replace the oldest snapshot with a non-empty directory of the same
	// name: os.Remove fails on it regardless of file permissions (which
	// root ignores), simulating an unremovable file.
	old := filepath.Join(st.Dir, "snap-00000001"+fileExt)
	if err := os.Remove(old); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(old, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	path, err := st.Save(&payload{Seq: 2})
	if err != nil {
		t.Fatalf("save failed after the frame landed: %v", err)
	}
	if filepath.Base(path) != "snap-00000002"+fileExt {
		t.Fatalf("saved at %s", path)
	}
	var got payload
	if from, err := st.LoadLatest(&got); err != nil || got.Seq != 2 || from != path {
		t.Fatalf("latest = %d from %s (%v), want 2 from %s", got.Seq, from, err, path)
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	if err := os.WriteFile(filepath.Join(st.Dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(&payload{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	paths, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("list = %v", paths)
	}
}

// TestStoreNameParsingIsAnchored: only file names that round-trip through
// the store's own canonical form count as snapshots. A crash-orphaned
// temp file ("snap-00000007.pbosnap.tmp123") or a zero-padding alias
// ("snap-000000008.pbosnap", nine digits) must neither appear in List nor
// skew the next sequence number, and Save sweeps the temp leftovers.
func TestStoreNameParsingIsAnchored(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	tmp := filepath.Join(st.Dir, "snap-00000007.pbosnap.tmp123")
	alias := filepath.Join(st.Dir, "snap-000000008.pbosnap")
	for _, p := range []string{tmp, alias} {
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	paths, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Fatalf("list sees phantom snapshots: %v", paths)
	}

	// With no real snapshot present, the next save must start at 1 — not
	// at 8 past the temp file's embedded number — and sweep the leftover.
	p, err := st.Save(&payload{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "snap-00000001.pbosnap" {
		t.Fatalf("first save landed at %s", filepath.Base(p))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived Save: %v", err)
	}
	var got payload
	if _, err := st.LoadLatest(&got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 {
		t.Fatalf("loaded %+v", got)
	}
}
