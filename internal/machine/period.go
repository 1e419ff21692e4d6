package machine

import (
	"math/bits"

	"pmevo/internal/portmap"
)

// Steady-state period detection.
//
// The simulator is deterministic, and every comparison Run performs is
// of the form "completion/busy cycle > now" or, under LeastLoaded,
// "load[i] < load[j]" — never against an absolute cycle. The state
// detection hashes is everything but the per-port loads, expressed
// relative to the current cycle. Two top-of-cycle states with equal
// hashes make the same moves as long as the scheduler makes the same
// port choices, so the loads are handled by an acceptance test instead
// of the hash: absolute loads grow without bound, and within a group of
// ports that share µops their differences can grow too (a port that
// also serves a µop no other port takes falls ever further behind), so
// no load encoding recurs on such kernels although the scheduler's
// choices already repeat.
//
// Acceptance. While detecting, each LeastLoaded issue records which
// eligible ports its choice passed over: passed[c] gains port e when the
// µop went to c although e was free and allowed. A choice of c over e
// means load[c] < load[e] (e < c) or load[c] <= load[e] (e > c, lower
// index breaks ties). Let D be the per-port load growth between an
// earlier occurrence of the state and now. If D[c] <= D[e] for every
// recorded pair over that interval, then the next interval, whose loads
// are the previous ones plus D at every decision, makes every choice
// the same way (by induction over its decisions); it therefore grows
// the loads by D again, and so on: execution from the earlier
// occurrence on is exactly periodic, with P iterations and C cycles per
// period. The same hash can recur with loads that fail the test, so the
// table keeps every occurrence, and a hit walks them newest-first with a
// running OR of the intervals' choice masks until one passes.
//
// Extrapolation. With the period accepted, the remaining iterations
// split into k whole periods plus a remainder r in [1, P]; Run skips
// k-1 periods arithmetically, adding (k-1)·D to the loads, and simulates
// the remainder and the window drain. The drain makes choices that no
// recorded period made, which is why the loads must carry the skipped
// periods' growth before the tail is simulated, not only in the result.
// The result is bit-identical to full simulation — the arithmetic is
// exact — up to the ~2^-128 odds of a two-lane hash collision, the same
// regime as the fingerprint-keyed caches.
//
// The canonical encoding:
//
//   - stream position (bodyIdx, uopIdx) and the window flights in order
//     (ports, block, latency, remaining µops, source cells);
//   - completion cells, encoded as max(completion-now, 0) when written —
//     a cell ≤ now stays ready forever, so all past completions are
//     equivalent — or as a canonical identity when still pending. A
//     pending cell always belongs to an instruction with un-issued µops,
//     whose flights sit in the window (or are the instruction currently
//     dispatching), so first-encounter numbering over the window + the
//     dispatch stream names every pending cell deterministically;
//   - per-port busy deltas max(busyUntil-now, 0);
//   - the register file, folded commutatively (registers resolved to the
//     always-ready state are skipped — they are indistinguishable from
//     never-written registers).
type detector struct {
	// table maps a state hash to its newest occurrence in snaps; older
	// occurrences chain through periodRec.prev.
	table map[[2]uint64]int32
	snaps []periodRec
	// loads[i*k:(i+1)*k] is snapshot i's per-port load vector, and
	// passed[i*k:(i+1)*k] the choice masks of the interval that ended
	// at snapshot i (k ports).
	loads  []int64
	passed []portmap.PortSet
	// cur collects the choice masks of the interval since the last
	// snapshot: cur[c] holds every port a µop issued to c passed over.
	cur []portmap.PortSet
	// acc and delta are scratch for a hit: the running OR of the
	// walked intervals' masks, and the load growth D over the interval
	// being tested (left holding the accepted occurrence's D).
	acc   []portmap.PortSet
	delta []int64

	// Pending-cell identity numbering, reset per snapshot via epoch.
	// The epoch counter is monotonic across the detector's whole
	// lifetime (scratch is pooled and reused across runs): resetting it
	// would let stale cellEpoch stamps from a previous run's body alias
	// a fresh snapshot's numbering and corrupt the canonical encoding.
	cellEpoch []int64
	cellID    []int32
	epoch     int64
	nextID    int32
}

// periodRec remembers one occurrence of a state.
type periodRec struct {
	prev  int32 // older occurrence of the same hash, -1 if none
	iter  int
	cycle int64

	instructions int64
	uops         int64
	windowFull   int64
	occupancy    int64
}

// mixA is the splitmix64 finalizer; mixB is the murmur3 finalizer. The
// two lanes of the state hash use one each, so a collision must defeat
// both mixers on the same encoding stream.
func mixA(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func mixB(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// lanes is the two-lane incremental state hash.
type lanes struct{ a, b uint64 }

func (l *lanes) add(x uint64) {
	l.a = mixA(l.a ^ x)
	l.b = mixB(l.b ^ (x + 0x9e3779b97f4a7c15))
}

// start prepares the detector for a run on n ports.
func (d *detector) start(n int) {
	if d.table == nil {
		d.table = make(map[[2]uint64]int32)
	} else {
		clear(d.table)
	}
	d.snaps = d.snaps[:0]
	d.loads = d.loads[:0]
	d.passed = d.passed[:0]
	// d.epoch deliberately NOT reset: see the field comment.
	if cap(d.cur) < n {
		d.cur = make([]portmap.PortSet, n)
		d.acc = make([]portmap.PortSet, n)
		d.delta = make([]int64, n)
	}
	d.cur = d.cur[:n]
	d.acc = d.acc[:n]
	d.delta = d.delta[:n]
	clear(d.cur)
}

// encodeCell canonically encodes one completion cell relative to the
// current cycle: even values are resolved completion deltas (0 = ready
// now or earlier), odd values carry the first-encounter identity of a
// still-pending cell.
func (d *detector) encodeCell(s *sim, ci int32) uint64 {
	v := s.sc.cells[ci]
	if v != notReady {
		delta := v - s.cycle
		if delta <= 0 {
			return 0
		}
		return uint64(delta) << 1
	}
	if d.cellEpoch[ci] != d.epoch {
		d.cellEpoch[ci] = d.epoch
		d.cellID[ci] = d.nextID
		d.nextID++
	}
	return uint64(d.cellID[ci])<<1 | 1
}

// hash returns the canonical hash of the current top-of-cycle state,
// loads excluded.
func (d *detector) hash(s *sim) [2]uint64 {
	sc := s.sc
	if len(d.cellEpoch) < len(sc.cells) {
		grown := make([]int64, len(sc.cells)+len(sc.cells)/2)
		copy(grown, d.cellEpoch)
		d.cellEpoch = grown
		ids := make([]int32, len(grown))
		copy(ids, d.cellID)
		d.cellID = ids
	}
	d.epoch++
	d.nextID = 0

	var h lanes
	h.add(uint64(s.bodyIdx)<<20 | uint64(s.uopIdx))
	for _, b := range sc.busy {
		h.add(uint64(max(b-s.cycle, 0)))
	}

	h.add(uint64(len(sc.window)))
	for fi := range sc.window {
		f := &sc.window[fi]
		h.add(uint64(f.ports))
		h.add(uint64(f.block)<<40 | uint64(f.latency)<<8 | uint64(f.srcLen))
		h.add(d.encodeCell(s, f.cell))
		h.add(uint64(sc.lefts[f.left]))
		for _, ci := range sc.srcIdx[f.srcOff : f.srcOff+f.srcLen] {
			h.add(d.encodeCell(s, ci))
		}
	}

	// The instruction currently being dispatched.
	h.add(d.encodeCell(s, s.curCell))
	h.add(uint64(sc.lefts[s.curLeft]))
	for _, ci := range sc.srcIdx[s.curSrcOff : s.curSrcOff+s.curSrcLen] {
		h.add(d.encodeCell(s, ci))
	}

	// Register file, folded commutatively (map order is arbitrary).
	// Every pending cell reachable here was already numbered by the
	// window/stream traversal above, so the per-register terms are
	// deterministic.
	var ra, rb uint64
	for reg, ci := range sc.reg {
		e := d.encodeCell(s, ci)
		if e == 0 {
			continue // ready now ≡ never written
		}
		x := mixA(uint64(reg)+0x9e3779b97f4a7c15) ^ mixB(e)
		ra += mixA(x)
		rb += mixB(x)
	}
	h.add(ra)
	h.add(rb)
	return [2]uint64{h.a, h.b}
}

// check looks the current top-of-cycle state up. If an earlier
// occurrence of it starts an exact period (see the file comment), check
// returns that occurrence, with d.delta holding the per-port load growth
// per period; otherwise it records the state and the choice masks of
// the interval that ends here. Only called while !done(), so the
// dispatch-stream fields are live.
func (d *detector) check(s *sim) (periodRec, bool) {
	key := d.hash(s)
	load := s.sc.load
	k := len(load)
	n := int32(len(d.snaps))
	newest, seen := d.table[key]
	if seen {
		copy(d.acc, d.cur)
		lo := n // d.acc covers the intervals ending at snapshots lo..n
		for i := newest; i >= 0; i = d.snaps[i].prev {
			for ; lo > i+1; lo-- {
				for c, m := range d.passed[int(lo-1)*k : int(lo)*k] {
					d.acc[c] |= m
				}
			}
			if d.accepts(load, d.loads[int(i)*k:int(i+1)*k]) {
				return d.snaps[i], true
			}
		}
	} else {
		newest = -1
	}
	d.table[key] = n
	d.snaps = append(d.snaps, periodRec{
		prev:         newest,
		iter:         s.iter,
		cycle:        s.cycle,
		instructions: s.instructions,
		uops:         s.uops,
		windowFull:   s.windowFull,
		occupancy:    s.occupancy,
	})
	d.loads = append(d.loads, load...)
	d.passed = append(d.passed, d.cur...)
	clear(d.cur)
	return periodRec{}, false
}

// accepts sets d.delta to the load growth from recLoad to load and
// reports whether no choice in d.acc went to a port whose load grew
// faster than that of a port it passed over.
func (d *detector) accepts(load, recLoad []int64) bool {
	for p := range load {
		d.delta[p] = load[p] - recLoad[p]
	}
	for c, m := range d.acc {
		for v := uint64(m); v != 0; v &= v - 1 {
			if d.delta[c] > d.delta[bits.TrailingZeros64(v)] {
				return false
			}
		}
	}
	return true
}
