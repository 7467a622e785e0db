package session

import (
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/session/snapshot"
)

// v3Payload lays out a v3 payload by hand: the shell's length and bytes,
// then nsec empty sections.
func v3Payload(shell string, nsec int) []byte {
	p := binary.BigEndian.AppendUint32(nil, uint32(len(shell)))
	p = append(p, shell...)
	p = binary.BigEndian.AppendUint32(p, uint32(nsec))
	for i := 0; i < nsec; i++ {
		p = binary.BigEndian.AppendUint64(p, 0)
	}
	return p
}

// FuzzFrameDecode feeds byte-derived payloads to snapshot.Decode under a
// valid header and CRC, so every input reaches the payload parsers: the
// first byte picks format version 1, 2 or 3 and the rest is the payload.
// Decode must never panic, and every error it returns must wrap
// snapshot.ErrCorrupt or snapshot.ErrVersion. The seeds are the golden
// v1–v3 payloads and hand-made v3 corruptions: section counts the
// payload cannot hold and matrix shapes the sections contradict.
func FuzzFrameDecode(f *testing.F) {
	for v := 1; v <= 3; v++ {
		frame, err := os.ReadFile(goldenPath(v))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(v - 1)}, frame[24:]...))
	}
	for _, p := range [][]byte{
		{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, // an empty shell and 2³²−1 sections
		{0, 0, 0, 0, 0, 0, 0, 7},             // seven sections, no bytes for them
		{0xff, 0xff, 0xff, 0xff},             // a shell longer than the payload
		v3Payload(`{"checkpoint":{"dim":0,"design_rows":-1},"checkpoint_sections":5}`, 5),
		v3Payload(`{"checkpoint":{"dim":0,"x_rows":1000000000000},"checkpoint_sections":5}`, 5),
		v3Payload(`{"checkpoint":{"dim":4611686018427387904,"design_rows":4},"checkpoint_sections":5}`, 5),
		v3Payload(`{"checkpoint":{"dim":2,"pending":[{"rows":-3}]},"checkpoint_sections":6}`, 6),
	} {
		f.Add(append([]byte{2}, p...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var p payload
		err := snapshot.Decode(frameWithHeader(uint32(data[0]%3)+1, data[1:]), &p)
		if err != nil && !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("Decode: %v wraps neither ErrCorrupt nor ErrVersion", err)
		}
	})
}
