package diskstore

import (
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"webwave/internal/core"
)

// FuzzJournalReplay: recovery reads a journal a crash may have left in any
// state, so
//   - arbitrary bytes never make OpenJournal panic or refuse to start, and
//     the tail it truncates leaves a journal that reopens to the same state;
//   - a valid record prefix followed by a corrupted record (and any records
//     after it) replays to exactly the prefix's state, so a document the
//     prefix dropped never comes back.
//
// The structured half reads data as 2-byte records: op (0 and 5..255 are
// unknown ops replay skips), then doc index and rate/version. flip and mask
// pick the corrupted byte of the record after the prefix.
func FuzzJournalReplay(f *testing.F) {
	var valid []byte
	for _, rec := range []Record{
		{Op: OpAdmit, Doc: "d0", Rate: 1}, {Op: OpVersion, Doc: "d0", Version: 3},
		{Op: OpDrop, Doc: "d0"}, {Op: OpAdmit, Doc: "d1", Rate: 2},
	} {
		valid = appendFrame(valid, rec)
	}
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add(valid, uint16(10), byte(0xff))
	f.Add([]byte{1, 0, 4, 9, 2, 0, 3, 5}, uint16(3), byte(1))
	f.Add([]byte{1, 1, 2, 1, 1, 2}, uint16(0), byte(0x80))
	f.Fuzz(func(t *testing.T, data []byte, flip uint16, mask byte) {
		dir := t.TempDir()

		// Arbitrary bytes.
		raw := filepath.Join(dir, "raw.wal")
		writeFile(t, raw, data)
		first := replayFile(t, raw)
		size := fileSize(t, raw)
		if size > int64(len(data)) {
			t.Fatalf("recovery grew the journal from %d to %d bytes", len(data), size)
		}
		if again := replayFile(t, raw); !maps.Equal(again, first) || fileSize(t, raw) != size {
			t.Fatalf("reopen after recovery replayed %v (%d bytes), first open %v (%d bytes)",
				again, fileSize(t, raw), first, size)
		}

		// Valid prefix, corrupted record, then records the corruption hides.
		want := make(map[core.DocID]DocState)
		var prefix []byte
		for i := 0; i+1 < len(data); i += 2 {
			rec := Record{Op: Op(data[i]), Doc: core.DocID([]byte{'d', '0' + data[i+1]%4})}
			if rec.Op == OpVersion {
				rec.Version = uint64(data[i+1])
			} else {
				rec.Rate = float64(data[i+1])
			}
			prefix = appendFrame(prefix, rec)
			applyRecord(want, rec)
		}
		// Resurrect every document the prefix no longer holds.
		var resurrect []byte
		for d := byte(0); d < 4; d++ {
			doc := core.DocID([]byte{'d', '0' + d})
			if _, held := want[doc]; !held {
				resurrect = appendFrame(resurrect, Record{Op: OpAdmit, Doc: doc, Rate: 99})
			}
		}
		if len(resurrect) == 0 {
			resurrect = appendFrame(nil, Record{Op: OpDrop, Doc: "d0"})
		}
		if mask == 0 {
			mask = 0xff
		}
		journal := append([]byte(nil), prefix...)
		journal = append(journal, resurrect...)
		frame := 8 + int(binary.LittleEndian.Uint32(resurrect)) // the corrupted record
		journal[len(prefix)+int(flip)%frame] ^= mask
		path := filepath.Join(dir, "corrupt.wal")
		writeFile(t, path, journal)
		if got := replayFile(t, path); !maps.Equal(got, want) {
			t.Fatalf("replayed %v past a corrupted record, want the prefix's %v", got, want)
		}
		if size := fileSize(t, path); size != int64(len(prefix)) {
			t.Fatalf("recovery kept %d bytes, want the %d-byte valid prefix", size, len(prefix))
		}
	})
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// replayFile opens the journal at path, which must succeed, and closes it.
func replayFile(t *testing.T, path string) map[core.DocID]DocState {
	t.Helper()
	j, state, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("recovery refused: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return state
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
