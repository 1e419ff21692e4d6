package evo

import (
	"math/rand"
	"slices"
	"testing"

	"pmevo/internal/portmap"
)

// recombineReference is the reference twin of recombine: the body
// recombine had before children were recycled. It concatenates the
// parents' µops into one pool, splits the pool and canonicalizes each
// child's part through SetDecomp, writing fresh children.
func recombineReference(rng *rand.Rand, a, b *portmap.Mapping) (*portmap.Mapping, *portmap.Mapping) {
	n := a.NumInsts()
	c1 := portmap.NewMapping(n, a.NumPorts)
	c2 := portmap.NewMapping(n, a.NumPorts)
	var pool, d1, d2 []portmap.UopCount
	for i := 0; i < n; i++ {
		pool = pool[:0]
		pool = append(pool, a.Decomp[i]...)
		pool = append(pool, b.Decomp[i]...)

		d1, d2 = d1[:0], d2[:0]
		for _, uc := range pool {
			k := 0
			for j := 0; j < uc.Count; j++ {
				if rng.Intn(2) == 0 {
					k++
				}
			}
			if k > 0 {
				d1 = append(d1, portmap.UopCount{Ports: uc.Ports, Count: k})
			}
			if uc.Count-k > 0 {
				d2 = append(d2, portmap.UopCount{Ports: uc.Ports, Count: uc.Count - k})
			}
		}
		if len(d1) == 0 {
			uc := pool[rng.Intn(len(pool))]
			d1 = append(d1, portmap.UopCount{Ports: uc.Ports, Count: 1})
		}
		if len(d2) == 0 {
			uc := pool[rng.Intn(len(pool))]
			d2 = append(d2, portmap.UopCount{Ports: uc.Ports, Count: 1})
		}
		c1.SetDecomp(i, d1)
		c2.SetDecomp(i, d2)
	}
	return c1, c2
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (d *fuzzBytes) next() byte {
	if len(*d) == 0 {
		return 0
	}
	v := (*d)[0]
	*d = (*d)[1:]
	return v
}

// mapping decodes a canonical mapping of n instructions over k ≤ 16
// ports. Per instruction, a header byte of 0xff selects every non-empty
// port set, each with a count byte; any other header h selects 1 + h%8
// µops of two port-mask bytes and a count byte each. SetDecomp merges
// repeated port sets.
func (d *fuzzBytes) mapping(n, k int) *portmap.Mapping {
	m := portmap.NewMapping(n, k)
	full := portmap.FullPortSet(k)
	for i := 0; i < n; i++ {
		var uops []portmap.UopCount
		if h := d.next(); h == 0xff {
			for ps := portmap.PortSet(1); ps <= full; ps++ {
				uops = append(uops, portmap.UopCount{Ports: ps, Count: 1 + int(d.next()%3)})
			}
		} else {
			for u := 0; u <= int(h%8); u++ {
				ps := (portmap.PortSet(d.next())<<8 | portmap.PortSet(d.next())) & full
				if ps == 0 {
					ps = full
				}
				uops = append(uops, portmap.UopCount{Ports: ps, Count: 1 + int(d.next()%4)})
			}
		}
		m.SetDecomp(i, uops)
	}
	return m
}

// FuzzRecombine is recombine's differential twin. From canonical parents
// decoded from data (b is a when the flag byte is odd), over 1-10 ports
// and 1-4 instructions, recombine writes into recycled children, whose
// old decompositions are decoded too and may be longer or shorter than
// the new ones. Each of two rounds, the second reusing the first's
// scratch and children, must give the reference's decompositions and
// per-instruction fingerprints with as many RNG draws, and must leave
// the parents unchanged. The seed corpus in testdata/fuzz/FuzzRecombine
// covers a == b, single-µop decompositions, decompositions over every
// port set, 10 ports, and children longer and shorter than their new
// decompositions.
func FuzzRecombine(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		d := fuzzBytes(data)
		k := 1 + int(d.next()%10)
		n := 1 + int(d.next()%4)
		flags := d.next()
		a := d.mapping(n, k)
		b := a
		if flags%2 == 0 {
			b = d.mapping(n, k)
		}
		c1, c2 := d.mapping(n, k), d.mapping(n, k)
		wantA, wantB := a.Clone(), b.Clone()
		var sc genScratch
		for round := int64(0); round < 2; round++ {
			refRng, refSrc := newCountedRand(seed + round)
			rng, src := newCountedRand(seed + round)
			w1, w2 := recombineReference(refRng, a, b)
			recombine(rng, a, b, c1, c2, &sc)
			for _, pair := range []struct {
				name      string
				got, want *portmap.Mapping
			}{{"child 1", c1, w1}, {"child 2", c2, w2}} {
				for i := 0; i < n; i++ {
					if !slices.Equal(pair.got.Decomp[i], pair.want.Decomp[i]) {
						t.Fatalf("round %d, %s, inst %d: decomposition %v, reference %v",
							round, pair.name, i, pair.got.Decomp[i], pair.want.Decomp[i])
					}
					if got, want := pair.got.Fingerprint(i), pair.want.Fingerprint(i); got != want {
						t.Fatalf("round %d, %s, inst %d: fingerprint %#x, reference %#x", round, pair.name, i, got, want)
					}
				}
				if err := pair.got.CheckFingerprints(); err != nil {
					t.Fatalf("round %d, %s: %v", round, pair.name, err)
				}
			}
			if src.n != refSrc.n {
				t.Fatalf("round %d: %d RNG draws, reference %d", round, src.n, refSrc.n)
			}
			if !a.Equal(wantA) || !b.Equal(wantB) {
				t.Fatalf("round %d: recombination changed a parent", round)
			}
		}
	})
}

// recombineParents draws a 10-port parent pair of 24 instructions, the
// size of ZEN's evolved mappings, as the initial population draws them.
func recombineParents(rng *rand.Rand) (*portmap.Mapping, *portmap.Mapping) {
	opts := portmap.RandomOptions{NumInsts: 24, NumPorts: 10}
	return portmap.Random(rng, opts), portmap.Random(rng, opts)
}

// TestRecombineAllocatesNothing pins the steady-state generation step's
// recombination at zero allocations: once the island's scratch has split
// the parents and each child's storage can hold its largest merge,
// recombination writes in place.
func TestRecombineAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := recombineParents(rng)
	c1, c2 := portmap.NewMapping(a.NumInsts(), a.NumPorts), portmap.NewMapping(a.NumInsts(), a.NumPorts)
	for i := range a.Decomp {
		// No merge of the parents' parts is longer than this one.
		c1.SetDecompMerged(i, a.Decomp[i], b.Decomp[i])
		c2.SetDecompMerged(i, a.Decomp[i], b.Decomp[i])
	}
	var sc genScratch
	if allocs := testing.AllocsPerRun(100, func() { recombine(rng, a, b, c1, c2, &sc) }); allocs != 0 {
		t.Errorf("recombine allocated %v times per call", allocs)
	}
}
