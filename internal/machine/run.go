package machine

import (
	"errors"
	"fmt"
	"math/bits"

	"pmevo/internal/portmap"
)

// Simulation storage. All simulator state is index-based — completion
// cells, µop counters, and source lists are indices into growable arenas
// rather than heap pointers — for three reasons: arenas are reusable
// across runs (a steady-state Run allocates nothing beyond its Result),
// stable indices give period detection a canonical way to name in-flight
// state (see period.go), and the whole state forks with a handful of
// memcpys (runPair's warmup fork).

// flight is a µop waiting in the scheduler window.
type flight struct {
	ports   portmap.PortSet
	block   int32
	latency int32
	srcOff  int32 // first source cell index in runScratch.srcIdx
	srcLen  int32
	cell    int32 // completion cell of this µop's instruction
	left    int32 // remaining-µop counter of this µop's instruction

	// wakeAt caches the µop's earliest possible issue cycle (wakeOf):
	// the maximum of its source completion cells once all of them are
	// written, an exact bound the issue scan tests with one comparison.
	// While a source is unresolved (its producer has not issued) it is
	// notReady+ci, naming the unresolved cell ci, so a flight that is
	// still blocked costs one load and the sources are rescanned only
	// once that cell is written. Purely derived state: it never changes
	// an issue decision, so it is excluded from period-detection
	// snapshots.
	wakeAt int64
}

// runScratch is one goroutine's reusable simulation state.
type runScratch struct {
	// cells[i] is an instruction completion cycle: notReady until the
	// instruction's last µop issues, then issue cycle + latency.
	// cells[0] is the shared always-ready cell for never-written
	// registers.
	cells  []int64
	lefts  []int32
	srcIdx []int32
	window []flight
	busy   []int64 // per-port busy-until cycle (exclusive)
	// load[k] counts the µops issued on port k, including those of the
	// periods a recurrence skipped (onPeriodFound): LeastLoaded compares
	// these counts, so the skipped periods' growth must be in them
	// before the tail is simulated, and the Result reports them as
	// PortUops.
	load []int64
	reg  map[int]int32
	det  detector
}

func (m *Machine) getScratch() *runScratch {
	sc, _ := m.pool.Get().(*runScratch)
	if sc == nil {
		sc = &runScratch{reg: make(map[int]int32)}
	}
	return sc
}

// sim is one simulation in progress.
type sim struct {
	m     *Machine
	body  []Inst
	iters int
	sc    *runScratch

	cycle   int64
	iter    int
	bodyIdx int
	uopIdx  int

	// Stream state of the instruction currently being dispatched.
	curSpec   *InstSpec
	curSrcOff int32
	curSrcLen int32
	curCell   int32
	curLeft   int32
	curWake   int64 // wakeAt seed for the instruction's flights (wakeOf)

	lastIssue int64

	// lastSnapIter is the body iteration of the most recent period
	// snapshot: detection samples the first top-of-cycle state of each
	// iteration, not every cycle, keeping the hashing overhead at
	// O(window) per *iteration*. The sample set is a deterministic
	// function of the execution, so recurrence detection stays sound.
	lastSnapIter int
	detecting    bool
	budget       int64

	// eventSkip enables the event-driven fast-forward; skipped counts
	// the dead cycles jumped over (Result.SkippedCycles).
	eventSkip bool
	skipped   int64

	// Period extrapolation state, filled in when a recurrence is found:
	// the final result gains extraPeriods copies of the per-period stat
	// deltas (the loads already carry theirs).
	extraPeriods, periodCycles int64
	dInstructions, dUops       int64
	dWindowFull, dOccupancy    int64
	periodIters                int // P

	// Warmup fork (runPair): when the dispatch stream crosses iteration
	// forkAt, or the period extrapolates past it, the complete state is
	// captured into fork so the shorter run's cycle count can be
	// finished independently.
	forkAt      int // -1: no fork requested
	fork        *sim
	forkMid     bool  // fork captured mid-cycle (dispatch already ran)
	forkExtraCy int64 // (k-1)·C for a fork created at the recurrence

	// Result accumulators; the per-port counts live in scratch.
	instructions int64
	uops         int64
	windowFull   int64
	occupancy    int64
}

// Run executes the loop body `iters` times and returns the result.
// The body's register reads and writes establish dependencies across
// iterations exactly as in real hardware (loop-carried dependencies are
// respected; the measurement harness unrolls to avoid them).
//
// Run detects the steady-state period of the (deterministic) execution
// and extrapolates the remaining iterations exactly, unless disabled via
// Config.PeriodDetectBudget, and fast-forwards dead cycles inside every
// simulated span unless disabled via Config.EventDrivenDisabled; results
// are bit-identical whichever combination is enabled.
func (m *Machine) Run(body []Inst, iters int) (Result, error) {
	for idx, in := range body {
		if in.Spec < 0 || in.Spec >= len(m.specs) {
			return Result{}, fmt.Errorf("machine: instruction %d references unknown spec %d", idx, in.Spec)
		}
	}
	if len(body) == 0 || iters <= 0 {
		return Result{PortUops: make([]int64, m.cfg.NumPorts)}, nil
	}
	sc := m.getScratch()
	s := sim{m: m, body: body, iters: iters, sc: sc, forkAt: -1}
	res, err := s.run()
	m.pool.Put(sc)
	return res, err
}

// reset prepares the scratch for a fresh run.
func (s *sim) reset() {
	sc := s.sc
	sc.cells = append(sc.cells[:0], 0) // cells[0]: the always-ready cell
	sc.lefts = sc.lefts[:0]
	sc.srcIdx = sc.srcIdx[:0]
	sc.window = sc.window[:0]
	n := s.m.cfg.NumPorts
	if cap(sc.busy) < n {
		sc.busy = make([]int64, n)
		sc.load = make([]int64, n)
	}
	sc.busy = sc.busy[:n]
	sc.load = sc.load[:n]
	clear(sc.busy)
	clear(sc.load)
	clear(sc.reg)
	s.lastIssue = -1
	s.lastSnapIter = -1

	budget := int64(s.m.cfg.PeriodDetectBudget)
	s.detecting = budget >= 0
	if budget == 0 {
		budget = defaultPeriodDetectBudget
	}
	s.budget = budget
	if s.detecting {
		s.sc.det.start(n)
	}
	s.eventSkip = !s.m.cfg.EventDrivenDisabled
}

// cellFor returns the completion cell index of a register's most recent
// writer (cells[0] if it was never written).
func (s *sim) cellFor(reg int) int32 {
	if ci, ok := s.sc.reg[reg]; ok {
		return ci
	}
	return 0
}

// startInst begins dispatching the instruction at the current stream
// position: it resolves source cells against the register file, installs
// a fresh completion cell for the destinations (register renaming), and
// arms the remaining-µop counter.
func (s *sim) startInst() {
	in := &s.body[s.bodyIdx]
	spec := &s.m.specs[in.Spec]
	s.curSpec = spec
	s.curSrcOff = int32(len(s.sc.srcIdx))
	for _, r := range in.Reads {
		s.sc.srcIdx = append(s.sc.srcIdx, s.cellFor(r))
	}
	s.curSrcLen = int32(len(s.sc.srcIdx)) - s.curSrcOff
	s.curWake = wakeOf(s.sc.cells, s.sc.srcIdx[s.curSrcOff:])
	s.curCell = int32(len(s.sc.cells))
	s.sc.cells = append(s.sc.cells, notReady)
	s.curLeft = int32(len(s.sc.lefts))
	s.sc.lefts = append(s.sc.lefts, int32(len(spec.Uops)))
	for _, w := range in.Writes {
		s.sc.reg[w] = s.curCell
	}
	s.instructions++
}

func (s *sim) done() bool { return s.iter >= s.iters }

// capture copies the complete simulation state into dst, which receives
// its own scratch (capacity reused across runs via the machine pool).
func (s *sim) capture(dst *sim, dstSc *runScratch) {
	reg := dstSc.reg
	det := dstSc.det
	*dst = *s
	dst.sc = dstSc
	dstSc.cells = append(dstSc.cells[:0], s.sc.cells...)
	dstSc.lefts = append(dstSc.lefts[:0], s.sc.lefts...)
	dstSc.srcIdx = append(dstSc.srcIdx[:0], s.sc.srcIdx...)
	dstSc.window = append(dstSc.window[:0], s.sc.window...)
	dstSc.busy = append(dstSc.busy[:0], s.sc.busy...)
	dstSc.load = append(dstSc.load[:0], s.sc.load...)
	if reg == nil {
		reg = make(map[int]int32, len(s.sc.reg))
	} else {
		clear(reg)
	}
	for k, v := range s.sc.reg {
		reg[k] = v
	}
	dstSc.reg = reg
	dstSc.det = det // forks never detect; keep dst's own arenas
	dst.detecting = false
	dst.fork = nil
	dst.forkAt = -1
}

// onPeriodFound applies the extrapolation bookkeeping at a recurrence
// whose per-period load growth is d: truncate the main target to the
// tail remainder and, if a warmup fork is still pending (runPair with
// the warmup target beyond the current iteration), capture it here with
// its own tail remainder. Each run's loads gain the growth of the
// periods it skips before its tail is simulated: the window drain at
// the end makes choices no period recorded, so they must see the loads
// a full simulation would.
func (s *sim) onPeriodFound(rec periodRec, d []int64) {
	P := s.iter - rec.iter
	C := s.cycle - rec.cycle
	if P <= 0 {
		return
	}
	// tailFor splits `target - rec.iter` into whole periods and a
	// remainder in [1, P]: the simulated tail must keep at least one
	// iteration, because a remainder of zero would stop the dispatch
	// stream exactly at the recurrence point, whose state includes an
	// instruction start (and !done-guarded stall accounting) that a run
	// ending there never performs. k ≥ 1 holds after the fold because
	// detection only fires while iterations remain (target > rec.iter+P
	// for the main run; the fork case checks forkAt > s.iter).
	tailFor := func(target int) (extra int64, r int) {
		k := int64(target-rec.iter) / int64(P)
		r = (target - rec.iter) % P
		if r == 0 {
			r = P
			k--
		}
		return k - 1, r
	}

	extra, r := tailFor(s.iters)
	s.extraPeriods = extra
	s.periodCycles = C
	s.periodIters = P
	s.dInstructions = s.instructions - rec.instructions
	s.dUops = s.uops - rec.uops
	s.dWindowFull = s.windowFull - rec.windowFull
	s.dOccupancy = s.occupancy - rec.occupancy

	if s.forkAt > s.iter && s.fork == nil {
		// The warmup target lies beyond the truncated tail: extrapolate
		// it from the same period, with its own independently simulated
		// tail from the recurrence state.
		fExtra, fr := tailFor(s.forkAt)
		//pmevo:allow scratchescape -- ownership transfers to s.fork via capture; runPair's epilogue releases both scratches
		fsc := s.m.getScratch()
		f := &sim{}
		s.capture(f, fsc)
		f.iters = s.iter + fr
		f.forkMid = false
		f.forkExtraCy = fExtra * C
		addPeriods(f.sc.load, d, fExtra)
		s.fork = f
	}
	addPeriods(s.sc.load, d, extra)
	s.iters = s.iter + r
}

// addPeriods adds k periods' load growth d to load.
func addPeriods(load, d []int64, k int64) {
	for p, dp := range d {
		load[p] += k * dp
	}
}

// dispatchStage moves up to DispatchWidth µops into the window, forking
// the state at the instant the stream crosses the warmup target (that is
// exactly where a run with that target stops dispatching).
func (s *sim) dispatchStage() int {
	cfg := &s.m.cfg
	dispatched := 0
	for !s.done() && dispatched < cfg.DispatchWidth && len(s.sc.window) < cfg.WindowSize {
		u := &s.curSpec.Uops[s.uopIdx]
		s.sc.window = append(s.sc.window, flight{
			ports:   u.Ports,
			block:   int32(u.Block),
			latency: int32(s.curSpec.Latency),
			srcOff:  s.curSrcOff,
			srcLen:  s.curSrcLen,
			cell:    s.curCell,
			left:    s.curLeft,
			wakeAt:  s.curWake,
		})
		dispatched++
		s.uopIdx++
		if s.uopIdx == len(s.curSpec.Uops) {
			s.uopIdx = 0
			s.bodyIdx++
			if s.bodyIdx == len(s.body) {
				s.bodyIdx = 0
				s.iter++
				if s.iter == s.forkAt && s.fork == nil {
					//pmevo:allow scratchescape -- ownership transfers to s.fork via capture; runPair's epilogue releases both scratches
					fsc := s.m.getScratch()
					f := &sim{}
					s.capture(f, fsc)
					f.iters = s.forkAt
					f.forkMid = true
					f.forkExtraCy = 0
					s.fork = f
				}
			}
			if !s.done() {
				s.startInst()
			}
		}
	}
	return dispatched
}

// finishCycle runs the post-dispatch half of a cycle — window
// statistics and the oldest-first greedy issue stage — and reports
// whether the run is complete.
func (s *sim) finishCycle(dispatched int) bool {
	cfg := &s.m.cfg
	sc := s.sc
	if !s.done() && dispatched < cfg.DispatchWidth && len(sc.window) >= cfg.WindowSize {
		s.windowFull++
	}
	s.occupancy += int64(len(sc.window))

	// free holds the ports that can still accept a µop this cycle: not
	// busy, and not yet issued to (block >= 1, so an issue makes its
	// port busy past this cycle).
	var free portmap.PortSet
	for k, b := range sc.busy {
		if b <= s.cycle {
			free |= portmap.PortSet(1) << k
		}
	}
	// Only LeastLoaded choices depend on the loads, so only they are
	// recorded for the period acceptance test (period.go).
	record := s.detecting && cfg.Policy == LeastLoaded
	window := sc.window
	w, fi := 0, 0
	for ; fi < len(window) && free != 0; fi++ {
		f := &window[fi]
		if eligible := f.ports & free; eligible != 0 && s.awake(f) {
			port := s.m.pickPort(eligible, sc.load)
			if record {
				sc.det.cur[port] |= eligible &^ (portmap.PortSet(1) << port)
			}
			free &^= portmap.PortSet(1) << port
			sc.busy[port] = s.cycle + int64(f.block)
			sc.load[port]++
			s.uops++
			s.lastIssue = s.cycle
			sc.lefts[f.left]--
			if sc.lefts[f.left] == 0 {
				sc.cells[f.cell] = s.cycle + int64(f.latency)
			}
			continue
		}
		if w != fi {
			window[w] = *f
		}
		w++
	}
	// Once no port is free, nothing later in the window can issue: the
	// rest slides down in one copy.
	if w != fi {
		copy(window[w:], window[fi:])
	}
	sc.window = window[:w+len(window)-fi]

	return s.done() && len(sc.window) == 0
}

// wakeOf returns the wakeAt bound of a µop with the given source cells:
// the latest source completion cycle, or notReady+ci if source cell ci
// is still unresolved.
func wakeOf(cells []int64, srcs []int32) int64 {
	wake := int64(0)
	for _, ci := range srcs {
		v := cells[ci]
		if v == notReady {
			return notReady + int64(ci)
		}
		wake = max(wake, v)
	}
	return wake
}

// refresh re-derives f.wakeAt once the unresolved source it names has
// been written.
func (s *sim) refresh(f *flight) {
	if f.wakeAt >= notReady && s.sc.cells[f.wakeAt-notReady] != notReady {
		f.wakeAt = wakeOf(s.sc.cells, s.sc.srcIdx[f.srcOff:f.srcOff+f.srcLen])
	}
}

// awake reports whether every source of f has completed by the current
// cycle.
func (s *sim) awake(f *flight) bool {
	s.refresh(f)
	return f.wakeAt <= s.cycle
}

// watchdog bounds the simulated cycle count. The top-of-loop check is
// the only exit for runaway simulations, so the event-driven jump must
// never leap a run from below the limit to "past it unnoticed":
// nextEventCycle clamps its target to watchdog+1, the first cycle the
// check rejects, so a jump over the limit is reported exactly like a
// stepped run reaching it.
const watchdog = int64(1) << 40

// loop is the simulation main loop, entered at the top of a cycle.
func (s *sim) loop() error {
	for {
		if s.cycle > watchdog {
			return errors.New("machine: simulation exceeded watchdog limit")
		}
		if s.detecting && !s.done() && s.iter > s.lastSnapIter {
			s.lastSnapIter = s.iter
			if s.cycle >= s.budget {
				s.detecting = false
			} else if rec, ok := s.sc.det.check(s); ok {
				// The state at this top-of-cycle recurred, and the
				// scheduler's choices since the earlier occurrence
				// repeat forever: execution from here replicates
				// execution from that occurrence, shifted by C cycles
				// and the loads by D per P iterations. Simulate the
				// remainder once and account for the skipped periods
				// arithmetically (see period.go).
				s.onPeriodFound(rec, s.sc.det.delta)
				s.detecting = false
			}
		}
		dispatched := s.dispatchStage()
		if s.finishCycle(dispatched) {
			return nil
		}
		// Event-driven fast-forward: a cycle that dispatched nothing and
		// issued nothing changed no semantic state — dispatch stays
		// blocked (the window is still full, or the stream is done) and
		// every waiting µop stays blocked until its readiness event. The
		// cycles from here to the next event are therefore dead, and all
		// their per-cycle accounting is linear in the span length:
		//
		//   - windowFull: the stepped loop would add 1 per cycle exactly
		//     when !done (dispatched==0 with instructions remaining
		//     implies the window is full, and no issues means it stays
		//     full), so the span adds span·[!done];
		//   - occupancy: no µop enters or leaves the window, so the span
		//     adds span·len(window);
		//   - every other counter (uops, instructions, port µops,
		//     lastIssue) only changes on dispatch or issue — none occur.
		//
		// Jumping cycle straight to the event is thus exact, not
		// approximate. Detection snapshots are unaffected: snapshots
		// fire at the first top-of-cycle of a new iteration, iterations
		// only advance on dispatch, and the span dispatches nothing —
		// the stepped loop would not have hashed any of the skipped
		// cycles either. The gate below (nothing happened this cycle) is
		// also what keeps dense kernels regression-free: a cycle that
		// issues never pays for the event scan.
		if s.eventSkip && dispatched == 0 && s.lastIssue != s.cycle {
			if next := s.nextEventCycle(); next > s.cycle+1 {
				span := next - s.cycle - 1
				if !s.done() {
					s.windowFull += span
				}
				s.occupancy += span * int64(len(s.sc.window))
				s.skipped += span
				s.cycle = next
				continue
			}
		}
		s.cycle++
	}
}

// nextEventCycle returns the earliest cycle at which any state
// transition is possible, given that nothing happened in the current
// cycle: the minimum over in-window flights of
// max(wakeAt, earliest allowed-port release). Flights whose sources are
// still unresolved (a producer µop has not issued) contribute nothing —
// the producer itself is an older in-window flight whose own bound
// covers them, and the oldest flight in the window always has resolved
// sources (every older µop has left the window, i.e. issued), so the
// minimum is always finite while the window is non-empty. At the
// returned cycle at least one µop issues: the bound-achieving flight is
// awake and one of its ports is free, and the oldest-first scan issues
// it or something older. Only called after a dead cycle, so no port was
// newly taken and no cell newly written this cycle.
func (s *sim) nextEventCycle() int64 {
	sc := s.sc
	next := int64(notReady)
	for fi := range sc.window {
		f := &sc.window[fi]
		// The same refresh finishCycle performs; it is safe here because
		// wakeAt is derived state.
		s.refresh(f)
		if f.wakeAt >= notReady {
			continue
		}
		minBusy := int64(notReady)
		for v := uint64(f.ports); v != 0; v &= v - 1 {
			k := bits.TrailingZeros64(v)
			if b := sc.busy[k]; b < minBusy {
				minBusy = b
				if b <= s.cycle {
					break
				}
			}
		}
		if t := max(f.wakeAt, minBusy); t < next {
			next = t
		}
	}
	if next > watchdog {
		// Never leap past the watchdog unreported (see its comment); the
		// clamp also catches the impossible all-unresolved window.
		next = watchdog + 1
	}
	return next
}

// run simulates from scratch and assembles the Result.
func (s *sim) run() (Result, error) {
	s.reset()
	s.startInst()
	if err := s.loop(); err != nil {
		return Result{}, err
	}
	cfg := &s.m.cfg
	res := Result{
		Cycles:              s.lastIssue + 1 + s.extraPeriods*s.periodCycles,
		Instructions:        s.instructions + s.extraPeriods*s.dInstructions,
		Uops:                s.uops + s.extraPeriods*s.dUops,
		WindowFullCycles:    s.windowFull + s.extraPeriods*s.dWindowFull,
		OccupancySum:        s.occupancy + s.extraPeriods*s.dOccupancy,
		PortUops:            make([]int64, cfg.NumPorts),
		DetectedPeriod:      s.periodCycles,
		DetectedPeriodIters: s.periodIters,
		SkippedCycles:       s.skipped,
	}
	copy(res.PortUops, s.sc.load)
	return res, nil
}

// finish completes a forked simulation and returns its cycle count. A
// mid-cycle fork (stream crossed the warmup target during dispatch)
// first finishes the interrupted cycle — its dispatch already ran, and
// with the target reached no further µops enter; a recurrence fork
// replays its tail from the top of the capture cycle.
func (s *sim) finish() (int64, error) {
	if s.forkMid {
		if !s.finishCycle(0) {
			s.cycle++
			if err := s.loop(); err != nil {
				return 0, err
			}
		}
	} else {
		if err := s.loop(); err != nil {
			return 0, err
		}
	}
	return s.lastIssue + 1 + s.forkExtraCy, nil
}

// runPair simulates the body for two iteration targets n1 < n2 in one
// pass, returning the n1 run's cycle count and the n2 run's full Result,
// each bit-identical to a standalone Run. The shared prefix — including
// the steady-state transient, the expensive part once period detection
// truncates the rest — is simulated once; the n1 result is completed
// from a forked state copy. The fork lands on the same cycle it would
// under brute force: forks are taken inside the dispatch stage
// (mid-dispatch) or at a recurrence, and the event-driven fast-forward
// only ever jumps over cycles in which nothing dispatches.
func (m *Machine) runPair(body []Inst, n1, n2 int) (int64, Result, error) {
	if n1 >= n2 {
		return 0, Result{}, fmt.Errorf("machine: runPair targets must be ordered, got %d >= %d", n1, n2)
	}
	if len(body) == 0 || n1 <= 0 || m.cfg.PeriodDetectBudget < 0 {
		// Degenerate or brute-force configurations: two plain runs (for
		// n1 <= 0, Run returns the canonical empty result).
		r1, err := m.Run(body, n1)
		if err != nil {
			return 0, Result{}, err
		}
		r2, err := m.Run(body, n2)
		if err != nil {
			return 0, Result{}, err
		}
		return r1.Cycles, r2, nil
	}
	for idx, in := range body {
		if in.Spec < 0 || in.Spec >= len(m.specs) {
			return 0, Result{}, fmt.Errorf("machine: instruction %d references unknown spec %d", idx, in.Spec)
		}
	}
	sc := m.getScratch()
	s := sim{m: m, body: body, iters: n2, sc: sc, forkAt: n1}
	res, err := s.run()
	if err != nil {
		if s.fork != nil {
			m.pool.Put(s.fork.sc)
		}
		m.pool.Put(sc)
		return 0, Result{}, err
	}
	// The dispatch stream of the n2 run passes iteration n1 before n2,
	// either literally (mid-cycle fork) or via the period (recurrence
	// fork), so a fork always exists here.
	cycles1, err := s.fork.finish()
	m.pool.Put(s.fork.sc)
	m.pool.Put(sc)
	if err != nil {
		return 0, Result{}, err
	}
	return cycles1, res, nil
}
