package snapshot

import (
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestEncodeRefusesOversizedFrame: a value whose frame would pass
// MaxFrameBytes is refused before any frame is built. The section is
// zero-filled and never written, so its pages stay unmapped.
func TestEncodeRefusesOversizedFrame(t *testing.T) {
	big := &secPayload{Name: "big", Sections: [][]float64{make([]float64, MaxFrameBytes/8)}}
	if frame, err := Encode(big); !errors.Is(err, ErrTooLarge) || frame != nil {
		t.Fatalf("Encode of a %d-word section: %d bytes, err %v; want ErrTooLarge", MaxFrameBytes/8, len(frame), err)
	}
	if _, err := Encode(&secPayload{Name: "small", Sections: [][]float64{make([]float64, 1024)}}); err != nil {
		t.Fatalf("Encode of a small frame: %v", err)
	}
}

// TestDecodeRejectsOversizedDeclaredPayload: a header declaring a
// payload past the bound is corrupt, whether the data is short (a
// damaged length field) or really that long (checked before the
// checksum reads it).
func TestDecodeRejectsOversizedDeclaredPayload(t *testing.T) {
	frame, err := Encode(&payload{Name: "ok", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint64(frame[12:], MaxFrameBytes)
	var got payload
	if err := Decode(frame, &got); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "frame bound") {
		t.Fatalf("declared %d-byte payload: err %v, want ErrCorrupt naming the bound", MaxFrameBytes, err)
	}
	long := make([]byte, MaxFrameBytes+1)
	copy(long, frame[:headerSize])
	binary.BigEndian.PutUint64(long[12:], uint64(len(long)-headerSize))
	if err := Decode(long, &got); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "frame bound") {
		t.Fatalf("%d-byte frame: err %v, want ErrCorrupt naming the bound", len(long), err)
	}
}

// TestLoadLatestSkipsOversizedFile: a newest file over the bound (sparse
// here, so it costs no disk) is skipped without being read, and the
// previous snapshot loads.
func TestLoadLatestSkipsOversizedFile(t *testing.T) {
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
	if err := os.Truncate(paths[1], MaxFrameBytes+1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var got payload
	from, err := st.LoadLatest(&got)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 || from != paths[0] {
		t.Fatalf("loaded seq %d (%s), want 1 (%s)", got.Seq, from, paths[0])
	}
	if read := after.TotalAlloc - before.TotalAlloc; read > 1<<20 {
		t.Fatalf("LoadLatest allocated %d bytes: it read the oversized file", read)
	}

	// Alone in the store, the oversized file leaves no snapshot, and the
	// failure names the bound.
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadLatest(&got); !errors.Is(err, ErrNoSnapshot) || !strings.Contains(err.Error(), "MaxFrameBytes") {
		t.Fatalf("oversized-only store: err %v, want ErrNoSnapshot naming the bound", err)
	}
}
