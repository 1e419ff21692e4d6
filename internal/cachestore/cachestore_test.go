package cachestore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"pmevo/internal/cachetable"
	"pmevo/internal/faultfs"
)

func sampleEntries(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		key := uint64(i+1) * 0x9e3779b97f4a7c15
		if key == 0 {
			key = 1
		}
		out[i] = Entry{Key: key, Val: uint64(i) * 3}
	}
	return out
}

// encodeEntries rebuilds the exact file image Save would write, for
// tests that damage it surgically.
func encodeEntries(schema uint32, contentKey uint64, entries []Entry) []byte {
	payload := make([]byte, 0, len(entries)*16)
	for _, e := range entries {
		payload = binary.LittleEndian.AppendUint64(payload, e.Key)
		payload = binary.LittleEndian.AppendUint64(payload, e.Val)
	}
	return encodeFrame(schema, contentKey, uint64(len(entries)), payload)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "cache.pmc")
	want := sampleEntries(1000)
	if err := Save(path, SchemaSimCache, 0xfeed, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, SchemaSimCache, 0xfeed)
	if err != nil {
		t.Fatalf("load error = %v, want success", err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.pmc")
	if err := Save(path, SchemaSimCache, 1, sampleEntries(10)); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, SchemaSimCache, 1, sampleEntries(3)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, SchemaSimCache, 1)
	if err != nil || len(got) != 3 {
		t.Fatalf("after overwrite: %d entries, err %v", len(got), err)
	}
	// The temp file must not linger.
	files, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("directory holds %d files, want only the cache file", len(files))
	}
}

func TestSaveBoundsEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.pmc")
	if err := Save(path, SchemaSimCache, 1, sampleEntries(MaxFileEntries+5)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, SchemaSimCache, 1)
	if err != nil {
		t.Fatalf("load error = %v", err)
	}
	if len(got) != MaxFileEntries {
		t.Fatalf("loaded %d entries, want truncation to %d", len(got), MaxFileEntries)
	}
}

// TestLoadDegradesToEmpty is the satellite robustness table: every way a
// cache file can be missing, damaged, or foreign must load as empty with
// the matching typed sentinel — never as a hard failure and never as
// entries.
func TestLoadDegradesToEmpty(t *testing.T) {
	valid := encodeEntries(SchemaSimCache, 0xabc, sampleEntries(16))
	bigEndian := func() []byte {
		// The same logical file written with the wrong byte order: every
		// multi-byte word byte-swapped, checksum recomputed over the
		// swapped image the way a wrong-endianness writer would.
		b := append([]byte(nil), valid[:len(valid)-8]...)
		swap := func(off, n int) {
			for i, j := off, off+n-1; i < j; i, j = i+1, j-1 {
				b[i], b[j] = b[j], b[i]
			}
		}
		swap(8, 4)  // version
		swap(12, 4) // schema
		swap(16, 8) // content key
		swap(24, 8) // count
		for off := headerSize; off < len(b); off += 8 {
			swap(off, 8)
		}
		return binary.BigEndian.AppendUint64(b, checksum(b))
	}()

	cases := []struct {
		name  string
		want  error
		write func(path string)
	}{
		{"missing file", ErrMissing, func(path string) {}},
		{"empty file", ErrTruncated, func(path string) { os.WriteFile(path, nil, 0o644) }},
		{"short header", ErrTruncated, func(path string) { os.WriteFile(path, valid[:headerSize-3], 0o644) }},
		{"truncated payload", ErrChecksum, func(path string) { os.WriteFile(path, valid[:len(valid)-20], 0o644) }},
		{"trailing garbage", ErrChecksum, func(path string) { os.WriteFile(path, append(append([]byte(nil), valid...), 1, 2, 3), 0o644) }},
		{"bad magic", ErrMagic, func(path string) {
			b := append([]byte(nil), valid...)
			b[0] ^= 0xff
			os.WriteFile(path, b, 0o644)
		}},
		{"bit flip in payload", ErrChecksum, func(path string) {
			b := append([]byte(nil), valid...)
			b[headerSize+7] ^= 0x10
			os.WriteFile(path, b, 0o644)
		}},
		{"bit flip in count", ErrChecksum, func(path string) {
			b := append([]byte(nil), valid...)
			b[24] ^= 0x01
			os.WriteFile(path, b, 0o644)
		}},
		{"wrong format version", ErrVersion, func(path string) {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(b[8:12], formatVersion+1)
			// A future writer would checksum its own image consistently.
			binary.LittleEndian.PutUint64(b[len(b)-8:], checksum(b[:len(b)-8]))
			os.WriteFile(path, b, 0o644)
		}},
		{"wrong endianness", ErrVersion, func(path string) { os.WriteFile(path, bigEndian, 0o644) }},
		{"huge entry count", ErrTooLarge, func(path string) {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint64(b[24:32], MaxFileEntries+1)
			binary.LittleEndian.PutUint64(b[len(b)-8:], checksum(b[:len(b)-8]))
			os.WriteFile(path, b, 0o644)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.pmc")
			c.write(path)
			entries, err := Load(path, SchemaSimCache, 0xabc)
			if len(entries) != 0 {
				t.Fatalf("loaded %d entries from damaged file", len(entries))
			}
			if err == nil {
				t.Fatal("damaged file loaded without a diagnostic")
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("diagnostic = %v, want sentinel %v", err, c.want)
			}
		})
	}
}

// allSchemas pins the full schema registry. The cachekey analyzer
// (internal/analysis) statically proves each constant has matched
// Save/Load call sites and appears in a test; this table is the
// runtime half — each schema's spills must degrade safely when
// damaged, not just SchemaSimCache's.
var allSchemas = []struct {
	name   string
	schema uint32
}{
	{"SchemaSimCache", SchemaSimCache},
	{"SchemaEvoCheckpoint", SchemaEvoCheckpoint},
}

func TestDamageMatrixCoversEverySchema(t *testing.T) {
	for _, s := range allSchemas {
		t.Run(s.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "cache.pmc")
			want := sampleEntries(8)
			if err := Save(path, s.schema, 0x51, want); err != nil {
				t.Fatal(err)
			}
			got, err := Load(path, s.schema, 0x51)
			if err != nil || len(got) != len(want) {
				t.Fatalf("round trip: %d entries, err %v", len(got), err)
			}
			// A payload bit flip must degrade to a checksum sentinel.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[headerSize] ^= 0x04
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if entries, err := Load(path, s.schema, 0x51); len(entries) != 0 || !errors.Is(err, ErrChecksum) {
				t.Fatalf("bit flip: %d entries, err %v, want ErrChecksum", len(entries), err)
			}
			// A reader expecting any other schema must reject the file.
			if err := Save(path, s.schema, 0x51, want); err != nil {
				t.Fatal(err)
			}
			for _, other := range allSchemas {
				if other.schema == s.schema {
					continue
				}
				if entries, err := Load(path, other.schema, 0x51); len(entries) != 0 || !errors.Is(err, ErrSchema) {
					t.Fatalf("read as %s: %d entries, err %v, want ErrSchema", other.name, len(entries), err)
				}
			}
		})
	}
}

// TestLoadRejectsMismatchedIdentity: a structurally valid file written
// by another consumer or against other inputs must read as empty — and
// so must a spill under a retired tag (2: the engine's old throughput
// memo, 3: the harness's old period hints, 5: the engine's old
// cross-generation fitness cache), under every live schema.
func TestLoadRejectsMismatchedIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.pmc")
	if err := Save(path, SchemaSimCache, 0xabc, sampleEntries(4)); err != nil {
		t.Fatal(err)
	}
	if entries, err := Load(path, SchemaEvoCheckpoint, 0xabc); len(entries) != 0 || !errors.Is(err, ErrSchema) {
		t.Fatalf("wrong schema: %d entries, err %v", len(entries), err)
	}
	if entries, err := Load(path, SchemaSimCache, 0xdef); len(entries) != 0 || !errors.Is(err, ErrContentKey) {
		t.Fatalf("wrong content key: %d entries, err %v", len(entries), err)
	}
	for _, retired := range []uint32{2, 3, 5} {
		if err := Save(path, retired, 0xabc, sampleEntries(4)); err != nil {
			t.Fatal(err)
		}
		for _, s := range allSchemas {
			if s.schema == retired {
				t.Fatalf("%s reuses the retired tag %d", s.name, retired)
			}
			if entries, err := Load(path, s.schema, 0xabc); len(entries) != 0 || !errors.Is(err, ErrSchema) {
				t.Fatalf("retired tag-%d file read as %s: %d entries, err %v", retired, s.name, len(entries), err)
			}
		}
	}
}

// TestTableRoundTrip spills a table with SaveTable and reloads it the
// way measure does: Load, then LoadEntries into a fresh table.
func TestTableRoundTrip(t *testing.T) {
	src := cachetable.New(1 << 10)
	for _, e := range sampleEntries(200) {
		src.Put(e.Key, e.Val)
	}
	path := filepath.Join(t.TempDir(), "cache.pmc")
	if err := SaveTable(path, SchemaSimCache, 7, src); err != nil {
		t.Fatal(err)
	}
	entries, err := Load(path, SchemaSimCache, 7)
	if err != nil {
		t.Fatalf("Load = %v", err)
	}
	dst := cachetable.New(1 << 10)
	if n := dst.LoadEntries(entries); n != len(src.Snapshot()) {
		t.Fatalf("LoadEntries stored %d entries, want %d", n, len(src.Snapshot()))
	}
	for _, e := range src.Snapshot() {
		if v, ok := dst.Get(e.Key); !ok || v != e.Val {
			t.Fatalf("reloaded table misses {%#x, %d}", e.Key, e.Val)
		}
	}
}

func TestBlobRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.pmc")
	want := []byte("checkpoint payload \x00\x01\x02 with binary bytes")
	if err := SaveBlob(path, SchemaEvoCheckpoint, 0x1234, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBlob(path, SchemaEvoCheckpoint, 0x1234)
	if err != nil {
		t.Fatalf("LoadBlob error = %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("blob = %q, want %q", got, want)
	}
	// Identity mismatches degrade exactly like entry files.
	if _, err := LoadBlob(path, SchemaSimCache, 0x1234); !errors.Is(err, ErrSchema) {
		t.Fatalf("wrong schema: %v", err)
	}
	if _, err := LoadBlob(path, SchemaEvoCheckpoint, 0x9999); !errors.Is(err, ErrContentKey) {
		t.Fatalf("wrong content key: %v", err)
	}
	// Blob and entry readers must not cross-read each other's files.
	if _, err := Load(path, SchemaEvoCheckpoint, 0x1234); err == nil {
		t.Fatal("entry Load accepted a blob file")
	}
}

func TestBlobEmptyAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.pmc")
	if err := SaveBlob(empty, SchemaEvoCheckpoint, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBlob(empty, SchemaEvoCheckpoint, 1); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty blob: %v, want ErrEmpty", err)
	}
	torn := filepath.Join(dir, "torn.pmc")
	if err := SaveBlob(torn, SchemaEvoCheckpoint, 1, []byte("payload bytes here")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBlob(torn, SchemaEvoCheckpoint, 1); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn blob: %v, want checksum/truncation sentinel", err)
	}
}

// TestFaultInjectionMatrix drives the atomic write path through the
// faultfs seam: a crash between temp write and rename, a torn write
// that still lands, and ENOSPC. After every fault, the reader must see
// either the last good file or a typed cold-start diagnostic — never
// stale temp litter under the final name, never a misread.
func TestFaultInjectionMatrix(t *testing.T) {
	good := sampleEntries(32)
	newer := sampleEntries(64)

	loadIsGood := func(t *testing.T, path string) {
		t.Helper()
		got, err := Load(path, SchemaSimCache, 7)
		if err != nil {
			t.Fatalf("last-good file unreadable after fault: %v", err)
		}
		if len(got) != len(good) {
			t.Fatalf("loaded %d entries, want last-good %d", len(got), len(good))
		}
		for i := range good {
			if got[i] != good[i] {
				t.Fatalf("entry %d = %+v, want %+v", i, got[i], good[i])
			}
		}
	}

	t.Run("crash between write and rename keeps last good", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cache.pmc")
		if err := Save(path, SchemaSimCache, 7, good); err != nil {
			t.Fatal(err)
		}
		restore := faultfs.Set(&faultfs.Hooks{
			BeforeRename: func(oldpath, newpath string) error {
				return errors.New("simulated crash before rename")
			},
		})
		err := Save(path, SchemaSimCache, 7, newer)
		restore()
		if err == nil {
			t.Fatal("Save succeeded through a simulated pre-rename crash")
		}
		loadIsGood(t, path)
	})

	t.Run("orphaned temp file does not confuse later runs", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cache.pmc")
		if err := Save(path, SchemaSimCache, 7, good); err != nil {
			t.Fatal(err)
		}
		// Simulate the residue of a hard kill: a stray temp file the
		// deferred cleanup never removed.
		stray := filepath.Join(filepath.Dir(path), ".cachestore-stray.tmp")
		if err := os.WriteFile(stray, []byte("partial garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		loadIsGood(t, path)
		if err := Save(path, SchemaSimCache, 7, good); err != nil {
			t.Fatalf("Save with stray temp present: %v", err)
		}
		loadIsGood(t, path)
	})

	t.Run("torn write that renames degrades to cold start", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cache.pmc")
		if err := Save(path, SchemaSimCache, 7, good); err != nil {
			t.Fatal(err)
		}
		restore := faultfs.Set(&faultfs.Hooks{
			BeforeWrite: func(p string, data []byte) ([]byte, error) {
				return data[:len(data)/2], nil // torn mid-payload
			},
		})
		err := Save(path, SchemaSimCache, 7, newer)
		restore()
		if err != nil {
			t.Fatalf("a torn write is silent by definition, got %v", err)
		}
		entries, err := Load(path, SchemaSimCache, 7)
		if len(entries) != 0 {
			t.Fatalf("read %d entries from a torn file", len(entries))
		}
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("torn file diagnostic = %v, want checksum/truncation", err)
		}
	})

	t.Run("ENOSPC keeps last good", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cache.pmc")
		if err := Save(path, SchemaSimCache, 7, good); err != nil {
			t.Fatal(err)
		}
		restore := faultfs.Set(&faultfs.Hooks{
			BeforeWrite: func(p string, data []byte) ([]byte, error) {
				return nil, syscall.ENOSPC
			},
		})
		err := Save(path, SchemaSimCache, 7, newer)
		restore()
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("Save error = %v, want ENOSPC surfaced", err)
		}
		loadIsGood(t, path)
	})

	t.Run("blob path shares the same guarantees", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ckpt.pmc")
		goodBlob := []byte("last good checkpoint")
		if err := SaveBlob(path, SchemaEvoCheckpoint, 3, goodBlob); err != nil {
			t.Fatal(err)
		}
		restore := faultfs.Set(&faultfs.Hooks{
			BeforeRename: func(oldpath, newpath string) error {
				return errors.New("simulated crash before rename")
			},
		})
		err := SaveBlob(path, SchemaEvoCheckpoint, 3, []byte("newer checkpoint"))
		restore()
		if err == nil {
			t.Fatal("SaveBlob succeeded through a simulated pre-rename crash")
		}
		got, err := LoadBlob(path, SchemaEvoCheckpoint, 3)
		if err != nil || string(got) != string(goodBlob) {
			t.Fatalf("after fault: blob %q, err %v; want last-good", got, err)
		}
	})
}
