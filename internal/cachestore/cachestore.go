// Package cachestore persists cachetable.Table contents between
// processes: a versioned, checksummed, bounded, atomically-written
// on-disk spill format. It is the warm-start layer under the
// measurement harness's kernel-simulation cache — repeated inference on
// the same ISA reloads pure, expensively derived values (noiseless
// steady-state cycles) instead of re-deriving them — and the container
// for evolution checkpoints (opaque blobs under the same framing).
//
// The store is safe by construction:
//
//   - Load never fails into a result path. A missing, truncated,
//     bit-flipped, version-mismatched, or foreign file yields no
//     entries plus a typed sentinel error (ErrMissing, ErrChecksum,
//     ...) — the consumer inspects it with errors.Is for logging and
//     simply cold-starts. Cached values are pure functions of their
//     keys, so a loaded entry can change timing but never results.
//   - Files carry a format version, a consumer schema tag, and a
//     caller-supplied content key (e.g. the evolution checkpoint's hash
//     of its experiment set and options); any mismatch reads as empty.
//     Consumers whose keys are already self-versioning (the kernel
//     cache hashes the machine fingerprint into every key) use a fixed
//     content key.
//   - A whole-file checksum (seeded FNV-1a over header and payload)
//     rejects truncation and corruption, including byte-order damage:
//     the encoding is fixed little-endian, and a file written with the
//     wrong byte order fails the checksum.
//   - Save writes a temp file in the target directory and renames it
//     into place, so a crashed or concurrent writer never leaves a
//     partially-written file under the final name. The write and the
//     rename go through internal/faultfs, the fault-injection seam the
//     tests use to simulate crash-between-write-and-rename, torn
//     writes, and ENOSPC.
//   - Size is bounded: Save truncates to MaxFileEntries and Load
//     refuses counts beyond it, so a corrupt count cannot drive a huge
//     allocation. Reloading into a bounded table keeps the existing
//     overwrite-on-collision semantics — excess entries only cost
//     recomputation.
package cachestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"pmevo/internal/cachetable"
	"pmevo/internal/faultfs"
)

// Schema tags identify the consumer that wrote a file; a file is only
// ever loaded by the schema that wrote it. Tags 2, 3 and 5 are retired
// and stay reserved: they marked the engine's per-experiment throughput
// memo (fitness-memo.pmc), the measurement harness's per-body period
// hints (period-hints.pmc) and the engine's cross-generation fitness
// cache (fitness-cache.pmc). No later schema may reuse them, so such a
// file never decodes as another schema.
const (
	SchemaSimCache      uint32 = 1 // measure: kernel-simulation cache
	SchemaEvoCheckpoint uint32 = 4 // evo: checkpoint blob (populations, RNG, counters)
)

// Typed load diagnostics. Load and LoadBlob return exactly one of
// these (wrapped with detail via %w) whenever they yield no data; the
// degrade-to-cold contract is unchanged — these errors exist so callers
// can log or branch with errors.Is instead of matching strings, never
// so they can fail a run.
var (
	// ErrMissing: no file at the path (a plain cold start).
	ErrMissing = errors.New("no cache file")
	// ErrUnreadable: the file exists but could not be read.
	ErrUnreadable = errors.New("unreadable cache file")
	// ErrTruncated: fewer bytes than the header or the declared payload.
	ErrTruncated = errors.New("truncated cache file")
	// ErrMagic: not a cachestore file at all.
	ErrMagic = errors.New("not a cachestore file")
	// ErrVersion: written by an incompatible format version.
	ErrVersion = errors.New("cache format version mismatch")
	// ErrSchema: written by a different consumer.
	ErrSchema = errors.New("cache schema mismatch")
	// ErrContentKey: built against different inputs.
	ErrContentKey = errors.New("cache content key mismatch")
	// ErrTooLarge: declared size exceeds the store's bound.
	ErrTooLarge = errors.New("cache file exceeds size bound")
	// ErrChecksum: integrity check failed (corruption or torn write).
	ErrChecksum = errors.New("cache checksum mismatch")
	// ErrEmpty: a valid file with nothing in it (a spill taken before
	// anything was cached) — still a cold start, but a benign one.
	ErrEmpty = errors.New("empty cache file")
)

// formatVersion is bumped on any incompatible layout change; old files
// then load as empty (a cold start, never a misread).
const formatVersion uint32 = 1

// MaxFileEntries bounds both what Save writes and what Load accepts:
// 2^20 entries × 16 bytes = 16 MiB, comfortably above every bounded
// in-memory table (the kernel cache has 2^16 slots).
const MaxFileEntries = 1 << 20

// MaxBlobBytes bounds blob payloads (SaveBlob/LoadBlob) the same way
// MaxFileEntries bounds entry files: 16 MiB, far above any real
// checkpoint, small enough that a corrupt length cannot drive a huge
// allocation.
const MaxBlobBytes = 1 << 24

// magic identifies a cachestore file. The trailing byte doubles as a
// little-endian marker: the header words that follow are fixed
// little-endian, and the checksum covers their encoded bytes.
var magic = [8]byte{'P', 'M', 'E', 'V', 'O', 'C', 'S', 1}

const headerSize = 8 + 4 + 4 + 8 + 8 // magic, version, schema, contentKey, count

// Entry is one live key/value pair, shared with the in-memory table's
// snapshot/load API so consumers spill and reload without conversion.
type Entry = cachetable.Entry

// checksum is a seeded 64-bit FNV-1a over the encoded bytes. It guards
// integrity, not authenticity; its job is to make truncated, bit-flipped,
// or byte-swapped files read as empty.
func checksum(bs ...[]byte) uint64 {
	const offset, prime = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset)
	for _, b := range bs {
		for _, c := range b {
			h ^= uint64(c)
			h *= prime
		}
	}
	return h
}

// encodeFrame renders a file image: header (with count in the count
// slot), payload bytes, trailing checksum.
func encodeFrame(schema uint32, contentKey uint64, count uint64, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload)+8)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, schema)
	buf = binary.LittleEndian.AppendUint64(buf, contentKey)
	buf = binary.LittleEndian.AppendUint64(buf, count)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint64(buf, checksum(buf))
	return buf
}

// writeAtomic lands image at path via temp-file+rename, routing the
// fallible steps through faultfs so tests can inject crashes.
func writeAtomic(path string, image []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".cachestore-*.tmp")
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := faultfs.WriteFile(tmp, tmp.Name(), image); err != nil {
		tmp.Close()
		return fmt.Errorf("cachestore: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cachestore: close %s: %w", tmp.Name(), err)
	}
	if err := faultfs.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	return nil
}

// readFrame reads and validates the file at path against (schema,
// contentKey), returning the count word and the raw payload bytes.
// Every failure maps to exactly one typed sentinel.
func readFrame(path string, schema uint32, contentKey uint64) (count uint64, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, ErrMissing
		}
		return 0, nil, fmt.Errorf("%w: %w", ErrUnreadable, err)
	}
	if len(data) < headerSize+8 {
		return 0, nil, fmt.Errorf("%w (short header: %d bytes)", ErrTruncated, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return 0, nil, fmt.Errorf("%w (bad magic)", ErrMagic)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != formatVersion {
		return 0, nil, fmt.Errorf("%w (format version %d, want %d)", ErrVersion, v, formatVersion)
	}
	if s := binary.LittleEndian.Uint32(data[12:16]); s != schema {
		return 0, nil, fmt.Errorf("%w (schema %d, want %d)", ErrSchema, s, schema)
	}
	if ck := binary.LittleEndian.Uint64(data[16:24]); ck != contentKey {
		return 0, nil, fmt.Errorf("%w (cache built against different inputs)", ErrContentKey)
	}
	count = binary.LittleEndian.Uint64(data[24:32])
	payloadLen := len(data) - headerSize - 8
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if checksum(body) != sum {
		return 0, nil, fmt.Errorf("%w (corrupt cache file)", ErrChecksum)
	}
	return count, data[headerSize : headerSize+payloadLen], nil
}

// Save atomically writes the entries for (schema, contentKey) to path,
// creating parent directories as needed. Entry lists beyond
// MaxFileEntries are truncated — the store is a bounded cache, and a
// dropped entry only costs recomputation. The write goes to a temp file
// in the destination directory followed by a rename, so readers and
// crashed writers never observe a partial file.
func Save(path string, schema uint32, contentKey uint64, entries []Entry) error {
	if len(entries) > MaxFileEntries {
		entries = entries[:MaxFileEntries]
	}
	payload := make([]byte, 0, len(entries)*16)
	for _, e := range entries {
		payload = binary.LittleEndian.AppendUint64(payload, e.Key)
		payload = binary.LittleEndian.AppendUint64(payload, e.Val)
	}
	return writeAtomic(path, encodeFrame(schema, contentKey, uint64(len(entries)), payload))
}

// Load reads the entries stored at path for (schema, contentKey). Any
// problem — missing file, truncation, corruption, format/schema/content
// mismatch — yields a nil entry list and a typed diagnostic error (see
// the Err* sentinels), and the consumer cold-starts; the error is for
// logging and errors.Is branching, never for failing a run. A nil
// error means the file was read successfully and carried at least one
// entry.
func Load(path string, schema uint32, contentKey uint64) ([]Entry, error) {
	count, payload, err := readFrame(path, schema, contentKey)
	if err != nil {
		return nil, err
	}
	if count > MaxFileEntries {
		return nil, fmt.Errorf("%w (entry count %d exceeds bound %d)", ErrTooLarge, count, MaxFileEntries)
	}
	if uint64(len(payload)) != count*16 {
		return nil, fmt.Errorf("%w (%d payload bytes, want %d)", ErrTruncated, len(payload), count*16)
	}
	entries := make([]Entry, 0, count)
	for i := 0; i < int(count); i++ {
		off := i * 16
		e := Entry{
			Key: binary.LittleEndian.Uint64(payload[off : off+8]),
			Val: binary.LittleEndian.Uint64(payload[off+8 : off+16]),
		}
		if e.Key == 0 {
			continue // never stored by Save; skip rather than poison a table
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		// Valid but empty (a spill taken before anything was cached):
		// give callers that log empty loads a real diagnostic.
		return nil, ErrEmpty
	}
	return entries, nil
}

// SaveBlob atomically writes an opaque payload (e.g. an evolution
// checkpoint) under the same framing, integrity checks, and atomic
// write path as entry files. Payloads beyond MaxBlobBytes are rejected
// rather than truncated — unlike cache entries, a blob is not
// droppable-by-parts.
func SaveBlob(path string, schema uint32, contentKey uint64, payload []byte) error {
	if len(payload) > MaxBlobBytes {
		return fmt.Errorf("cachestore: blob %d bytes exceeds bound %d", len(payload), MaxBlobBytes)
	}
	return writeAtomic(path, encodeFrame(schema, contentKey, uint64(len(payload)), payload))
}

// LoadBlob reads a blob written by SaveBlob, with the same
// degrade-to-cold error contract as Load: a typed sentinel diagnostic
// and a nil payload on any mismatch or damage. A zero-length blob
// yields ErrEmpty.
func LoadBlob(path string, schema uint32, contentKey uint64) ([]byte, error) {
	count, payload, err := readFrame(path, schema, contentKey)
	if err != nil {
		return nil, err
	}
	if count > MaxBlobBytes {
		return nil, fmt.Errorf("%w (blob length %d exceeds bound %d)", ErrTooLarge, count, MaxBlobBytes)
	}
	if uint64(len(payload)) != count {
		return nil, fmt.Errorf("%w (%d payload bytes, want %d)", ErrTruncated, len(payload), count)
	}
	if count == 0 {
		return nil, ErrEmpty
	}
	out := make([]byte, count)
	copy(out, payload)
	return out, nil
}

// SaveTable spills a table's live entries. The snapshot must not race
// with writers (see cachetable.Snapshot); consumers call this at exit
// or between benchmark phases.
func SaveTable(path string, schema uint32, contentKey uint64, t *cachetable.Table) error {
	return Save(path, schema, contentKey, t.Snapshot())
}
