package portmap

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// UopCount is one edge bundle of the three-level mapping: n instances of
// the µop identified by the port set Ports in an instruction's
// decomposition (a labeled edge (i, n, u) ∈ N in Definition 4).
type UopCount struct {
	Ports PortSet
	Count int
}

// Experiment is a multiset of instructions, the input of the throughput
// model (Definition 3). Instructions are identified by their dense index
// in the ISA under test. Multiple terms with the same instruction are
// allowed and are summed.
type Experiment []InstCount

// InstCount is one term of an experiment multiset.
type InstCount struct {
	Inst  int
	Count int
}

// TotalCount returns the total number of instruction instances
// (the "length" of the experiment in the paper's terminology).
func (e Experiment) TotalCount() int {
	n := 0
	for _, t := range e {
		n += t.Count
	}
	return n
}

// Clone returns a deep copy of the experiment.
func (e Experiment) Clone() Experiment {
	return append(Experiment(nil), e...)
}

// Normalize returns an equivalent experiment with terms merged by
// instruction, zero-count terms dropped, and terms sorted by instruction
// index. Normalize is used to produce canonical keys for experiment sets.
// The result is never nil, even for an empty experiment.
func (e Experiment) Normalize() Experiment {
	return e.AppendNormalized(make(Experiment, 0, len(e)))
}

// AppendNormalized appends the terms of e.Normalize() to dst and returns
// the extended slice. It allocates nothing when dst has room for every
// term of e.
func (e Experiment) AppendNormalized(dst Experiment) Experiment {
	start := len(dst)
	dst = append(dst, e...)
	terms := dst[start:]
	slices.SortFunc(terms, func(x, y InstCount) int { return cmp.Compare(x.Inst, y.Inst) })
	w := 0
	for r := 0; r < len(terms); {
		t := terms[r]
		for r++; r < len(terms) && terms[r].Inst == t.Inst; r++ {
			t.Count += terms[r].Count
		}
		if t.Count != 0 {
			terms[w] = t
			w++
		}
	}
	return dst[:start+w]
}

// Key returns a canonical string key for the experiment multiset,
// independent of term order: "inst:count" for each term of e.Normalize(),
// joined by commas. Short experiments allocate only the string.
func (e Experiment) Key() string {
	var terms [8]InstCount
	var buf [64]byte
	b := buf[:0]
	for i, t := range e.AppendNormalized(terms[:0]) {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t.Inst), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(t.Count), 10)
	}
	return string(b)
}

// MassTerm is a µop mass in the two-level model: Mass units of work that
// must be distributed over the ports in Ports. The slice of MassTerms for
// an experiment is the input of both throughput engines.
type MassTerm struct {
	Ports PortSet
	Mass  float64
}

// Mapping is a port mapping in the three-level model (Definition 4).
// Each instruction of the ISA under test decomposes into a multiset of
// µops; each µop is identified with the set of ports that can execute it
// (§4.4). A two-level mapping (Definition 2) is the special case where
// every instruction has exactly one µop with count 1.
type Mapping struct {
	// NumPorts is |P|, the number of execution ports.
	NumPorts int
	// Decomp maps each instruction index to its µop decomposition.
	// The inner slices are sorted by port set for canonical form.
	Decomp [][]UopCount
	// InstNames optionally names the instructions for rendering and
	// serialization; if nil, instructions render as "I<n>".
	InstNames []string
	// PortNames optionally names the ports; if nil, ports render as
	// "P<n>".
	PortNames []string

	// fps caches per-instruction decomposition fingerprints (0: not
	// cached); see fingerprint.go. Maintained by the mutating methods.
	fps []uint64
}

// NewMapping creates a mapping for numInsts instructions over numPorts
// ports with empty decompositions. Decompositions must be populated with
// SetDecomp before the mapping is valid.
func NewMapping(numInsts, numPorts int) *Mapping {
	if numPorts <= 0 || numPorts > MaxPorts {
		panic(fmt.Sprintf("portmap: invalid port count %d", numPorts))
	}
	return &Mapping{
		NumPorts: numPorts,
		Decomp:   make([][]UopCount, numInsts),
		fps:      make([]uint64, numInsts),
	}
}

// NumInsts returns the number of instructions covered by the mapping.
func (m *Mapping) NumInsts() int { return len(m.Decomp) }

// SetDecomp replaces the decomposition of instruction i. The µops are
// merged by port set, zero counts dropped, and sorted canonically.
func (m *Mapping) SetDecomp(inst int, uops []UopCount) {
	m.Decomp[inst] = canonicalizeUops(uops)
	m.cacheFingerprint(inst)
}

// SetDecompMerged replaces the decomposition of instruction inst with the
// merge of x and y, two canonical decompositions (sorted by port set,
// distinct port sets, positive counts): a port set in both carries the
// sum of its counts. The result is canonical without a sort, and it is
// written into the decomposition's existing storage, which grows only
// when it lacks the capacity, so recombination into a recycled mapping
// allocates nothing. x and y must not share that storage.
func (m *Mapping) SetDecompMerged(inst int, x, y []UopCount) {
	d := slices.Grow(m.Decomp[inst][:0], len(x)+len(y))
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0].Ports < y[0].Ports:
			d, x = append(d, x[0]), x[1:]
		case y[0].Ports < x[0].Ports:
			d, y = append(d, y[0]), y[1:]
		default:
			d = append(d, UopCount{Ports: x[0].Ports, Count: x[0].Count + y[0].Count})
			x, y = x[1:], y[1:]
		}
	}
	d = append(append(d, x...), y...)
	m.Decomp[inst] = d
	m.cacheFingerprint(inst)
}

// AddUop adds n instances of µop u to instruction i's decomposition.
func (m *Mapping) AddUop(inst int, u PortSet, n int) {
	m.Decomp[inst] = canonicalizeUops(append(m.Decomp[inst], UopCount{Ports: u, Count: n}))
	m.cacheFingerprint(inst)
}

// SetUopCount sets the count of the j-th µop of instruction inst in
// place, keeping the decomposition canonical (the port set, and hence the
// sort order, is unchanged). count must be positive; use RemoveUopAt to
// drop a µop. Local search uses this to probe ±1 count adjustments
// without cloning the mapping.
func (m *Mapping) SetUopCount(inst, j, count int) {
	if count <= 0 {
		panic(fmt.Sprintf("portmap: SetUopCount(%d, %d, %d): non-positive count", inst, j, count))
	}
	m.Decomp[inst][j].Count = count
	m.cacheFingerprint(inst)
}

// RemoveUopAt removes and returns the j-th µop of instruction inst,
// preserving the canonical order of the remaining µops. The removed µop
// can be restored with InsertUopAt(inst, j, uc).
func (m *Mapping) RemoveUopAt(inst, j int) UopCount {
	d := m.Decomp[inst]
	uc := d[j]
	m.Decomp[inst] = append(d[:j], d[j+1:]...)
	m.cacheFingerprint(inst)
	return uc
}

// InsertUopAt inserts µop uc at position j of instruction inst's
// decomposition. The caller must preserve the canonical order (sorted by
// port set, distinct port sets) — the inverse of RemoveUopAt does.
func (m *Mapping) InsertUopAt(inst, j int, uc UopCount) {
	d := append(m.Decomp[inst], UopCount{})
	copy(d[j+1:], d[j:])
	d[j] = uc
	m.Decomp[inst] = d
	m.cacheFingerprint(inst)
}

// canonicalizeUops returns the canonical form of a decomposition in a
// fresh slice, never nil: µops sorted by port set, duplicates merged and
// non-positive totals dropped.
func canonicalizeUops(uops []UopCount) []UopCount {
	out := append(make([]UopCount, 0, len(uops)), uops...)
	slices.SortFunc(out, func(a, b UopCount) int { return cmp.Compare(a.Ports, b.Ports) })
	w := 0
	for r := 0; r < len(out); {
		ports := out[r].Ports
		total := 0
		for ; r < len(out) && out[r].Ports == ports; r++ {
			total += out[r].Count
		}
		if total > 0 {
			out[w] = UopCount{Ports: ports, Count: total}
			w++
		}
	}
	return out[:w]
}

// Validate checks structural invariants: every instruction has a
// non-empty decomposition, every µop has at least one port within range,
// and counts are positive.
func (m *Mapping) Validate() error {
	if m.NumPorts <= 0 || m.NumPorts > MaxPorts {
		return fmt.Errorf("portmap: invalid port count %d", m.NumPorts)
	}
	all := FullPortSet(m.NumPorts)
	for i, uops := range m.Decomp {
		if len(uops) == 0 {
			return fmt.Errorf("portmap: instruction %s has no µops", m.instName(i))
		}
		for _, uc := range uops {
			if uc.Ports.IsEmpty() {
				return fmt.Errorf("portmap: instruction %s has a µop with no ports", m.instName(i))
			}
			if !uc.Ports.SubsetOf(all) {
				return fmt.Errorf("portmap: instruction %s uses ports outside 0..%d: %s",
					m.instName(i), m.NumPorts-1, uc.Ports)
			}
			if uc.Count <= 0 {
				return fmt.Errorf("portmap: instruction %s has non-positive µop count %d",
					m.instName(i), uc.Count)
			}
		}
	}
	return nil
}

func (m *Mapping) instName(i int) string {
	if m.InstNames != nil && i < len(m.InstNames) {
		return m.InstNames[i]
	}
	return fmt.Sprintf("I%d", i)
}

func (m *Mapping) portName(k int) string {
	if m.PortNames != nil && k < len(m.PortNames) {
		return m.PortNames[k]
	}
	return fmt.Sprintf("P%d", k)
}

// Clone returns a deep copy of the mapping (names are shared; they are
// immutable by convention).
func (m *Mapping) Clone() *Mapping {
	cp := &Mapping{
		NumPorts:  m.NumPorts,
		Decomp:    make([][]UopCount, len(m.Decomp)),
		InstNames: m.InstNames,
		PortNames: m.PortNames,
	}
	for i, uops := range m.Decomp {
		cp.Decomp[i] = append([]UopCount(nil), uops...)
	}
	if m.fps != nil {
		cp.fps = append([]uint64(nil), m.fps...)
	}
	return cp
}

// Equal reports whether the two mappings have identical structure
// (port count and canonical decompositions; names are ignored).
func (m *Mapping) Equal(o *Mapping) bool {
	if m.NumPorts != o.NumPorts || len(m.Decomp) != len(o.Decomp) {
		return false
	}
	for i := range m.Decomp {
		a, b := m.Decomp[i], o.Decomp[i]
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

// IsTwoLevel reports whether the mapping is expressible in the two-level
// model: each instruction has exactly one µop with count 1.
func (m *Mapping) IsTwoLevel() bool {
	for _, uops := range m.Decomp {
		if len(uops) != 1 || uops[0].Count != 1 {
			return false
		}
	}
	return true
}

// TwoLevelFromPorts builds a two-level mapping: instruction i can execute
// on exactly the ports in ports[i], as a single µop.
func TwoLevelFromPorts(numPorts int, ports []PortSet) *Mapping {
	m := NewMapping(len(ports), numPorts)
	for i, p := range ports {
		m.Decomp[i] = []UopCount{{Ports: p, Count: 1}}
		m.cacheFingerprint(i)
	}
	return m
}

// Volume returns the µop volume V(m) = Σ_(i,n,u) n·|u| over all
// instructions (§4.4). A smaller volume indicates a more compact and
// interpretable mapping.
func (m *Mapping) Volume() int {
	v := 0
	for _, uops := range m.Decomp {
		for _, uc := range uops {
			v += uc.Count * uc.Ports.Count()
		}
	}
	return v
}

// VolumeOf returns the µop volume restricted to the given instructions.
func (m *Mapping) VolumeOf(insts []int) int {
	v := 0
	for _, i := range insts {
		for _, uc := range m.Decomp[i] {
			v += uc.Count * uc.Ports.Count()
		}
	}
	return v
}

// DistinctUops returns the sorted set of distinct µops (port sets) used
// anywhere in the mapping. Table 2 reports its size.
func (m *Mapping) DistinctUops() []PortSet {
	seen := make(map[PortSet]bool)
	for _, uops := range m.Decomp {
		for _, uc := range uops {
			seen[uc.Ports] = true
		}
	}
	out := make([]PortSet, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UopCountOf returns the total number of µop instances in instruction
// i's decomposition (Σ n over its edges).
func (m *Mapping) UopCountOf(inst int) int {
	n := 0
	for _, uc := range m.Decomp[inst] {
		n += uc.Count
	}
	return n
}

// Flatten reduces the three-level throughput problem for experiment e to
// the two-level model (§3.2): it returns the µop masses e'(u) =
// Σ_(i,n,u) e(i)·n, grouped by µop. The result is the input for the
// throughput engines.
func (m *Mapping) Flatten(e Experiment) []MassTerm {
	return m.FlattenInto(nil, e)
}

// FlattenInto is Flatten appending into dst to avoid allocation in hot
// loops. dst may be nil.
func (m *Mapping) FlattenInto(dst []MassTerm, e Experiment) []MassTerm {
	dst = dst[:0]
	for _, t := range e {
		if t.Count == 0 {
			continue
		}
		for _, uc := range m.Decomp[t.Inst] {
			mass := float64(t.Count * uc.Count)
			// Linear scan: experiments have few distinct µops.
			found := false
			for j := range dst {
				if dst[j].Ports == uc.Ports {
					dst[j].Mass += mass
					found = true
					break
				}
			}
			if !found {
				dst = append(dst, MassTerm{Ports: uc.Ports, Mass: mass})
			}
		}
	}
	return dst
}

// String renders the mapping in a compact human-readable form, one
// instruction per line:
//
//	add_r64_r64: 1*p015
//	store_m64_r64: 1*p23 + 1*p4
func (m *Mapping) String() string {
	var b strings.Builder
	for i, uops := range m.Decomp {
		fmt.Fprintf(&b, "%s:", m.instName(i))
		if len(uops) == 0 {
			b.WriteString(" (none)")
		}
		for j, uc := range uops {
			if j > 0 {
				b.WriteString(" +")
			}
			fmt.Fprintf(&b, " %d*%s", uc.Count, uc.Ports.CompactName())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PortUsageTable renders a port-by-instruction usage matrix similar to
// uops.info's tables: for each instruction, which ports its µops may use.
func (m *Mapping) PortUsageTable() string {
	var b strings.Builder
	b.WriteString("instruction")
	for k := 0; k < m.NumPorts; k++ {
		fmt.Fprintf(&b, "\t%s", m.portName(k))
	}
	b.WriteByte('\n')
	for i, uops := range m.Decomp {
		b.WriteString(m.instName(i))
		for k := 0; k < m.NumPorts; k++ {
			n := 0
			for _, uc := range uops {
				if uc.Ports.Has(k) {
					n += uc.Count
				}
			}
			if n == 0 {
				b.WriteString("\t.")
			} else {
				fmt.Fprintf(&b, "\t%d", n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
