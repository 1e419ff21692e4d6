//go:build pmevodebug

package portmap

import "testing"

// TestDebugFingerprintPanicsOnStaleRead pins the `pmevodebug` assertion:
// after a direct Decomp write (bypassing the fingerprint-maintaining
// methods), the very next Fingerprint read must panic instead of
// silently feeding a stale key into the engine's unit-table cache.
func TestDebugFingerprintPanicsOnStaleRead(t *testing.T) {
	m := NewMapping(2, 4)
	m.SetDecomp(0, []UopCount{{Ports: MakePortSet(0), Count: 1}})
	m.SetDecomp(1, []UopCount{{Ports: MakePortSet(1), Count: 1}})

	// The footgun: direct write without InvalidateFingerprints.
	m.Decomp[0] = []UopCount{{Ports: MakePortSet(0, 1), Count: 2}}

	defer func() {
		if recover() == nil {
			t.Fatal("stale fingerprint read did not panic under pmevodebug")
		}
	}()
	m.Fingerprint(0)
}

// TestDebugFingerprintCleanReads: reads through the maintained methods
// and after InvalidateFingerprints must not panic.
func TestDebugFingerprintCleanReads(t *testing.T) {
	m := NewMapping(1, 4)
	m.SetDecomp(0, []UopCount{{Ports: MakePortSet(0), Count: 1}})
	m.Fingerprint(0)
	m.Decomp[0] = []UopCount{{Ports: MakePortSet(1), Count: 1}}
	m.InvalidateFingerprints()
	if m.Fingerprint(0) != FingerprintDecomp(m.Decomp[0]) {
		t.Fatal("fingerprint after invalidation does not match decomposition")
	}
}
