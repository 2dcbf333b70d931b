package durable

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"isum/internal/catalog"
	"isum/internal/core"
	"isum/internal/features"
	"isum/internal/vfs"
	"isum/internal/workload"
)

// fuzzCatalog is a one-table schema for replaying fuzzed WAL bytes.
func fuzzCatalog() *catalog.Catalog {
	cat := catalog.New()
	tb := catalog.NewTable("t", 100000)
	tb.AddColumn(&catalog.Column{Name: "a", Type: catalog.TypeInt, DistinctCount: 1000, Min: 0, Max: 999,
		Hist: catalog.SyntheticHistogram(0, 999, 100000, 1000, 20, 0)})
	cat.AddTable(tb)
	return cat
}

// seedSegment builds a valid two-record segment so the fuzzer starts
// from structurally interesting input.
func seedSegment() []byte {
	buf := fileHeader(walMagic)
	for lsn := uint64(1); lsn <= 2; lsn++ {
		payload := binary.AppendUvarint(nil, lsn)
		payload = binary.AppendUvarint(payload, 1)
		payload = appendQuery(payload, int(lsn), "SELECT a FROM t WHERE a = 1", 10, 1)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
		buf = append(buf, payload...)
	}
	return buf
}

// FuzzWALReplay feeds arbitrary bytes to the full recovery path as a WAL
// segment: whatever the bytes, recovery must return a valid (possibly
// empty) state — never panic, never error on mere corruption.
func FuzzWALReplay(f *testing.F) {
	f.Add(seedSegment())
	f.Add(seedSegment()[:headerSize+3]) // torn frame
	f.Add([]byte("not a wal segment at all"))
	f.Add([]byte{})
	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ic, info, err := Recover(context.Background(), Options{
			Dir: dir, Catalog: cat, Compressor: core.DefaultOptions(), PoolSize: 2,
		})
		if err != nil {
			t.Fatalf("corruption must not be an error: %v", err)
		}
		if ic == nil || ic.Pool() == nil {
			t.Fatal("recovery must always return a usable state")
		}
		if int(info.LSN) < info.Replayed {
			t.Fatalf("inconsistent info: %+v", info)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoder (and
// the framed on-disk reader): corrupt input must yield errCorrupt, never
// a panic or a wild allocation.
func FuzzSnapshotDecode(f *testing.F) {
	in := features.NewInterner()
	in.AddKeys([]string{"t.a", "t.b"})
	w := &workload.Workload{}
	f.Add(encodeSnapshot(7, 42, in, w))
	f.Add(encodeSnapshot(0, 0, nil, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodeSnapshot(payload)
		if err == nil {
			// Valid payloads must round-trip through the framed file form.
			dir := t.TempDir()
			name, werr := writeSnapshot(vfs.OSFS{}, dir, payload)
			if werr != nil {
				t.Fatalf("re-writing a decodable snapshot: %v", werr)
			}
			back, rerr := readSnapshot(vfs.OSFS{}, dir, name)
			if rerr != nil {
				t.Fatalf("re-reading a written snapshot: %v", rerr)
			}
			if back.lsn != st.lsn || back.seen != st.seen || len(back.keys) != len(st.keys) || len(back.pool) != len(st.pool) {
				t.Fatal("snapshot round-trip changed state")
			}
		}
	})
}

// TestDecodeRejectsOversizedCounts pins that a count field larger than
// the bytes left to hold its elements is rejected before any slice is
// sized from it: a corrupt count must not reserve gigabytes.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	const huge = 1 << 22
	zero := binary.AppendUvarint(nil, 0)
	cases := map[string]struct {
		payload []byte
		decode  func([]byte) error
	}{
		"snapshot keys": {
			payload: binary.AppendUvarint(append(append([]byte{}, zero...), zero...), huge),
			decode:  func(p []byte) error { _, err := decodeSnapshot(p); return err },
		},
		"snapshot pool": {
			payload: binary.AppendUvarint(append(append(append([]byte{}, zero...), zero...), zero...), huge),
			decode:  func(p []byte) error { _, err := decodeSnapshot(p); return err },
		},
		"wal batch": {
			payload: binary.AppendUvarint(append([]byte{}, zero...), huge),
			decode:  func(p []byte) error { _, _, err := decodeBatch(p); return err },
		},
	}
	for name, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.payload)
		runtime.ReadMemStats(&after)
		if err != errCorrupt {
			t.Errorf("%s: err = %v, want errCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding a %d-byte payload allocated %d bytes", name, len(tc.payload), grew)
		}
	}
}
