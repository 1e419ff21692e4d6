package cachestore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// fuzzContentKey is the content key the FuzzLoad seed corpus was saved
// under.
const fuzzContentKey = 0x51

// FuzzLoad feeds arbitrary file images to Load and LoadBlob under every
// live schema. Neither may panic or return data alongside an error, and
// a successful Load returns only non-zero keys. Each image is also tried
// with its trailing checksum repaired, so mutations reach the count and
// payload checks behind it. The seed corpus (testdata/fuzz/FuzzLoad)
// holds real Save outputs for every live schema and for the retired
// tags 3 and 5, a SaveBlob output and an empty spill.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cache.pmc")
		check := func(image []byte) {
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, s := range allSchemas {
				entries, err := Load(path, s.schema, fuzzContentKey)
				if err != nil && entries != nil {
					t.Fatalf("%s: Load returned %d entries with error %v", s.name, len(entries), err)
				}
				if err == nil && len(entries) == 0 {
					t.Fatalf("%s: Load returned neither entries nor an error", s.name)
				}
				for _, e := range entries {
					if e.Key == 0 {
						t.Fatalf("%s: Load returned the reserved key 0", s.name)
					}
				}
				blob, err := LoadBlob(path, s.schema, fuzzContentKey)
				if err != nil && blob != nil {
					t.Fatalf("%s: LoadBlob returned %d bytes with error %v", s.name, len(blob), err)
				}
				if err == nil && len(blob) == 0 {
					t.Fatalf("%s: LoadBlob returned neither a payload nor an error", s.name)
				}
			}
		}
		check(data)
		if len(data) >= headerSize+8 {
			repaired := append([]byte(nil), data...)
			sum := len(repaired) - 8
			binary.LittleEndian.PutUint64(repaired[sum:], checksum(repaired[:sum]))
			check(repaired)
		}
	})
}
