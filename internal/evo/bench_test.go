package evo

import (
	"math/rand"
	"testing"

	"pmevo/internal/portmap"
)

// BenchmarkRecombine measures one recombination of a 10-port parent pair
// of 24 instructions into recycled children, the inner step of every
// generation.
func BenchmarkRecombine(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pa, pb := recombineParents(rng)
	c1, c2 := portmap.NewMapping(pa.NumInsts(), pa.NumPorts), portmap.NewMapping(pa.NumInsts(), pa.NumPorts)
	var sc genScratch
	b.ReportAllocs()
	for b.Loop() {
		recombine(rng, pa, pb, c1, c2, &sc)
	}
}
