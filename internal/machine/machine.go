// Package machine implements a cycle-level simulator of an out-of-order
// processor core, serving as the hardware substitute for the physical
// Intel, AMD, and ARM machines of the paper's evaluation (Table 1).
//
// The simulator models the parts of Figure 1 that determine steady-state
// throughput: a dispatch stage with limited width, a scheduler window of
// limited capacity, execution ports that accept one µop per cycle
// (pipelined units) or block for several cycles (dividers), and register
// dependencies with per-instruction latencies.
//
// Crucially, the scheduler is *greedy*, not optimal: µops issue oldest-
// first to the least-loaded allowed port. The gap between this greedy
// schedule and the optimal schedule assumed by the throughput model
// (Definition 3, assumption 1) is one source of the model error the paper
// observes (Figure 6), alongside measurement noise. A deliberately weak
// configuration (narrow dispatch, small window) reproduces the A72's
// "less advanced out-of-order execution engine" (§5.3.2).
//
// Because the scheduler is deterministic, a loop body's execution becomes
// exactly periodic once the simulator state recurs and the scheduler's
// port choices repeat. Run exploits this: it hashes a canonical state
// snapshot, per-port loads excluded, once per body iteration and, on a
// recurrence over which no least-loaded choice can flip as the loads
// grow, extrapolates the remaining iterations arithmetically instead of
// simulating them — with results bit-identical to full cycle-by-cycle
// simulation (see period.go). Inside every simulated span the core is
// event-driven: cycles in which no dispatch and no issue is possible are
// fast-forwarded in one arithmetic jump to the next readiness event
// (see run.go), again bit-identical to stepping them. Simulation storage
// lives in pooled per-goroutine scratch, so steady-state runs allocate
// (almost) nothing.
package machine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"pmevo/internal/portmap"
)

// SchedPolicy selects how the greedy scheduler picks among free allowed
// ports.
type SchedPolicy int

const (
	// LeastLoaded picks the free allowed port with the smallest total
	// number of µops issued so far. This balances well and is close to
	// the optimal scheduler for symmetric workloads.
	LeastLoaded SchedPolicy = iota
	// LowestIndex always picks the free allowed port with the smallest
	// index. It creates systematic imbalance, modeling simpler hardware.
	LowestIndex
)

// PeriodDetectDisabled disables steady-state period detection when
// assigned to Config.PeriodDetectBudget: Run simulates every cycle.
const PeriodDetectDisabled = -1

// defaultPeriodDetectBudget is the number of simulated cycles Run spends
// looking for a steady-state period (Config.PeriodDetectBudget == 0)
// before falling back to plain cycle-by-cycle simulation. Harness-scale
// loop bodies (~50 instructions) settle into their period within a few
// body iterations, far below this bound: on random length-5 held-out
// kernels detection fires on over 99% of them on every Table 1
// processor. The rest are a few latency-bound kernels whose period
// starts past the budget, which the event-driven core steps through
// cheaply, and kernels whose transient outlasts the run.
const defaultPeriodDetectBudget = 4096

// Config describes the simulated core.
type Config struct {
	// NumPorts is the number of execution ports.
	NumPorts int
	// DispatchWidth is the maximum number of µops entering the scheduler
	// window per cycle.
	DispatchWidth int
	// WindowSize is the scheduler window capacity (µops waiting to
	// issue).
	WindowSize int
	// Policy is the port selection policy.
	Policy SchedPolicy
	// FrequencyGHz converts cycles to wall-clock time for the
	// measurement harness.
	FrequencyGHz float64
	// PeriodDetectBudget caps the number of simulated cycles examined by
	// steady-state period detection before Run falls back to plain
	// cycle-by-cycle simulation for the rest of the run. 0 selects a
	// default budget; PeriodDetectDisabled (or any negative value) turns
	// detection off entirely. Detection never changes results: an
	// extrapolated run is bit-identical to full simulation, only cheaper.
	// Detection composes with, and is independent of, the event-driven
	// fast-forward (EventDrivenDisabled): detection removes redundant
	// *iterations* once a recurrence is found, the fast-forward removes
	// dead *cycles* inside every simulated span — including the transient
	// before a recurrence and runs where detection is off or never fires.
	// Disabling both (uarch.Processor.BaselineMachine) yields the
	// brute-force cycle-by-cycle twin used as the bit-equality oracle.
	PeriodDetectBudget int
	// EventDrivenDisabled turns off the event-driven fast-forward in the
	// simulation core: every cycle is stepped individually even when no
	// state transition is possible (window full or stream done, and every
	// waiting µop blocked on a future completion or busy port). Like
	// PeriodDetectBudget, the knob never changes results — a
	// fast-forwarded run is bit-identical to the stepped run, dead spans
	// are accounted arithmetically (see run.go) — it exists so the
	// brute-force twin stays available as the bit-equality oracle and so
	// twinbench.Machine can quantify the fast-forward win.
	EventDrivenDisabled bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumPorts <= 0 || c.NumPorts > portmap.MaxPorts {
		return fmt.Errorf("machine: invalid port count %d", c.NumPorts)
	}
	if c.DispatchWidth <= 0 {
		return errors.New("machine: dispatch width must be positive")
	}
	if c.WindowSize <= 0 {
		return errors.New("machine: window size must be positive")
	}
	if c.FrequencyGHz <= 0 {
		return errors.New("machine: frequency must be positive")
	}
	return nil
}

// UopSpec describes one µop of an instruction's decomposition.
type UopSpec struct {
	// Ports is the set of ports that can execute the µop.
	Ports portmap.PortSet
	// Block is the number of cycles the chosen port is occupied.
	// 1 means fully pipelined (Definition 3, assumption 2); dividers
	// use larger values.
	Block int
}

// InstSpec describes the execution behaviour of one instruction form.
type InstSpec struct {
	// Uops is the µop decomposition.
	Uops []UopSpec
	// Latency is the number of cycles from issue of the last µop until
	// the instruction's results are available to dependent instructions.
	Latency int
}

// Inst is one instruction instance in a program: a reference to its spec
// plus the concrete registers it reads and writes. Register IDs are
// small dense integers assigned by the caller (the measurement harness's
// register allocator).
type Inst struct {
	Spec   int
	Reads  []int
	Writes []int
}

// Result reports a simulation run.
type Result struct {
	// Cycles is the number of cycles until the last µop issued.
	Cycles int64
	// Instructions is the total number of instruction instances executed.
	Instructions int64
	// Uops is the total number of µops issued.
	Uops int64
	// PortUops[k] is the number of µops issued on port k.
	PortUops []int64
	// WindowFullCycles counts cycles in which dispatch halted because
	// the scheduler window was full — the signature of a too-small
	// out-of-order window (the A72 story of §5.3.2).
	WindowFullCycles int64
	// OccupancySum accumulates the window occupancy per cycle; divide by
	// Cycles (MeanOccupancy) for the average number of waiting µops.
	OccupancySum int64
	// DetectedPeriod is the steady-state period in cycles found by
	// period detection (0 when no recurrence was found and the run was
	// simulated cycle by cycle; non-zero even if the extrapolation then
	// skipped zero whole periods because the tail covered the rest).
	// Diagnostic metadata: it does not affect, and is not part of, the
	// simulated semantics.
	DetectedPeriod int64
	// DetectedPeriodIters is the same steady-state period expressed in
	// body iterations. Diagnostic metadata, like DetectedPeriod.
	DetectedPeriodIters int
	// SkippedCycles counts the dead cycles the event-driven core
	// fast-forwarded over instead of stepping (0 with
	// Config.EventDrivenDisabled). It counts cycles actually simulated
	// past, not cycles covered by period extrapolation — the two
	// mechanisms' wins are reported separately. Diagnostic metadata: a
	// fast-forwarded run is bit-identical to the stepped run on every
	// other field.
	SkippedCycles int64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MeanOccupancy returns the average scheduler-window occupancy over the
// run, in µops.
func (r Result) MeanOccupancy() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.OccupancySum) / float64(r.Cycles)
}

// WindowFullFraction returns the fraction of cycles in which the window
// capacity stalled dispatch.
func (r Result) WindowFullFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.WindowFullCycles) / float64(r.Cycles)
}

// Machine is a simulated core with a fixed instruction spec table. It is
// immutable after construction and safe for concurrent Run calls: every
// run draws its storage from an internal scratch pool.
type Machine struct {
	cfg    Config
	specs  []InstSpec
	fp     uint64
	specFP []uint64
	pool   sync.Pool // *runScratch
}

// New creates a machine. Every spec must have at least one µop and every
// µop at least one in-range port.
func New(cfg Config, specs []InstSpec) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	all := portmap.FullPortSet(cfg.NumPorts)
	for i, s := range specs {
		if len(s.Uops) == 0 {
			return nil, fmt.Errorf("machine: spec %d has no µops", i)
		}
		if s.Latency < 1 {
			return nil, fmt.Errorf("machine: spec %d has latency %d < 1", i, s.Latency)
		}
		for j, u := range s.Uops {
			if u.Ports.IsEmpty() {
				return nil, fmt.Errorf("machine: spec %d µop %d has no ports", i, j)
			}
			if !u.Ports.SubsetOf(all) {
				return nil, fmt.Errorf("machine: spec %d µop %d uses out-of-range ports %s", i, j, u.Ports)
			}
			if u.Block < 1 {
				return nil, fmt.Errorf("machine: spec %d µop %d has block %d < 1", i, j, u.Block)
			}
		}
	}
	m := &Machine{cfg: cfg, specs: specs, fp: fingerprintMachine(cfg, specs)}
	m.specFP = make([]uint64, len(specs))
	for i := range specs {
		m.specFP[i] = fingerprintSpec(&specs[i])
	}
	return m, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumSpecs returns the number of instruction specs.
func (m *Machine) NumSpecs() int { return len(m.specs) }

// Fingerprint returns a 64-bit identity of the simulated machine: the
// configuration and every instruction spec, hashed. Two machines with
// equal fingerprints produce identical Run results on every body (up to
// ~2^-64 hash-collision odds). The period-detection budget and the
// event-driven knob are excluded — neither ever changes results. The
// measurement layer's kernel-simulation cache keys on this.
func (m *Machine) Fingerprint() uint64 { return m.fp }

// SpecFingerprint returns a content hash of one instruction spec (µop
// decomposition and latency). Distinct spec IDs with equal fingerprints
// behave identically in the simulator, so a canonical loop-body encoding
// can substitute the fingerprint for the ID: instruction forms of the
// same semantic class share specs, and their measurement kernels then
// deduplicate in the kernel-simulation cache — the bulk of the
// redundancy in Table 1-shaped form sets.
func (m *Machine) SpecFingerprint(spec int) uint64 { return m.specFP[spec] }

// fingerprintSpec hashes one spec's simulator-visible content.
func fingerprintSpec(s *InstSpec) uint64 {
	h := mixA(0x706d65766f737063) // "pmevospc"
	h = mixA(h ^ uint64(s.Latency)<<32 ^ uint64(len(s.Uops)))
	for _, u := range s.Uops {
		h = mixA(h ^ uint64(u.Ports))
		h = mixA(h ^ uint64(u.Block))
	}
	return h
}

// fingerprintMachine hashes the result-determining parts of a machine:
// the configuration plus every spec's content fingerprint, so the two
// hashes can never disagree about what counts as simulator-visible
// spec content.
func fingerprintMachine(cfg Config, specs []InstSpec) uint64 {
	h := mixA(0x706d65766f6d6163) // "pmevomac"
	h = mixA(h ^ uint64(cfg.NumPorts))
	h = mixA(h ^ uint64(cfg.DispatchWidth))
	h = mixA(h ^ uint64(cfg.WindowSize))
	h = mixA(h ^ uint64(cfg.Policy))
	h = mixA(h ^ math.Float64bits(cfg.FrequencyGHz))
	for i := range specs {
		h = mixA(h ^ fingerprintSpec(&specs[i]))
	}
	return h
}

const notReady = math.MaxInt64 / 4

// pickPort selects the port for a µop among its eligible ports — the
// allowed ports that are free this cycle; eligible must not be empty.
func (m *Machine) pickPort(eligible portmap.PortSet, load []int64) int {
	best := bits.TrailingZeros64(uint64(eligible))
	if m.cfg.Policy == LowestIndex {
		return best
	}
	bestLoad := load[best]
	for v := uint64(eligible) & (uint64(eligible) - 1); v != 0; v &= v - 1 {
		if k := bits.TrailingZeros64(v); load[k] < bestLoad {
			best, bestLoad = k, load[k]
		}
	}
	return best
}

// SteadyStateCycles runs the body for warmup+measure iterations and
// returns the marginal cycles per iteration over the measured portion,
// implementing the steady-state throughput of Definition 1.
//
// The two underlying runs share one simulation pass (runPair): the
// steady-state transient is simulated once and the warmup-length run is
// completed from a forked state copy, with both cycle counts
// bit-identical to standalone Runs (and hence to brute-force simulation
// with detection disabled).
func (m *Machine) SteadyStateCycles(body []Inst, warmup, measure int) (float64, error) {
	v, _, err := m.SteadyStateResult(body, warmup, measure)
	return v, err
}

// SteadyStateResult is SteadyStateCycles plus run diagnostics: the
// returned Result is that of the warmup+measure run.
func (m *Machine) SteadyStateResult(body []Inst, warmup, measure int) (float64, Result, error) {
	if measure <= 0 {
		return 0, Result{}, errors.New("machine: measure iterations must be positive")
	}
	c1, r2, err := m.runPair(body, warmup, warmup+measure)
	if err != nil {
		return 0, Result{}, err
	}
	return float64(r2.Cycles-c1) / float64(measure), r2, nil
}
