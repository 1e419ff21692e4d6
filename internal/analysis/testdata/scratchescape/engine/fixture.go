// Package engine is the scratchescape fixture: a twin of the real
// engine's per-worker arena. evalScratch values claimed from the pool
// must stay inside the claiming function and be released on every path
// to return.
package engine

import "sync"

// evalScratch is the fixture twin of engine's per-worker arena.
type evalScratch struct {
	buf []float64
}

var scratchPool sync.Pool

// getScratch is an accessor: its result type is the scratch type, so
// the return is the hand-off and the caller inherits the release
// obligation.
func getScratch() *evalScratch {
	return scratchPool.Get().(*evalScratch)
}

func putScratch(s *evalScratch) {
	scratchPool.Put(s)
}

// getScratches is a batch accessor: a slice of scratches is claimed and
// released whole.
func getScratches(n int) []*evalScratch {
	scs := make([]*evalScratch, n)
	for i := range scs {
		scs[i] = getScratch()
	}
	return scs
}

func putScratches(scs []*evalScratch) {
	for _, s := range scs {
		putScratch(s)
	}
}

// GoodSum claims, uses, and releases on every path via defer.
func GoodSum(xs []float64) float64 {
	s := getScratch()
	defer putScratch(s)
	t := 0.0
	for _, x := range xs {
		t += x
	}
	s.buf = append(s.buf[:0], t)
	return t
}

// GoodDirectPool drives the pool without the accessor: the Get claim
// and the Put release pair up directly.
func GoodDirectPool() {
	s := scratchPool.Get().(*evalScratch)
	s.buf = s.buf[:0]
	scratchPool.Put(s)
}

// GoodBatch claims a batch and releases it whole via defer.
func GoodBatch(n int) {
	scs := getScratches(n)
	defer putScratches(scs)
	for _, s := range scs {
		s.buf = s.buf[:0]
	}
}

// BadBatchLeak never releases the batch it claims.
func BadBatchLeak(n int) {
	scs := getScratches(n) // want "not released"
	scs[0].buf = nil
}

// BadLeak releases on one path only: the empty-input return leaks the
// claim.
func BadLeak(xs []float64) float64 {
	s := getScratch() // want "not released"
	if len(xs) == 0 {
		return 0
	}
	putScratch(s)
	return xs[0]
}

// BadSend hands the arena to another worker over a channel.
func BadSend(ch chan *evalScratch) {
	s := getScratch()
	ch <- s // want "sent on a channel"
	putScratch(s)
}

// BadSpawnArg passes the arena into a spawned goroutine.
func BadSpawnArg(f func(*evalScratch)) {
	s := getScratch()
	go f(s) // want "passed to a spawned goroutine"
	putScratch(s)
}

// BadCapture lets a spawned closure keep writing after the release.
func BadCapture() {
	s := getScratch()
	go func() { // want "captured by a spawned goroutine"
		s.buf = nil
	}()
	putScratch(s)
}

type worker struct {
	scratch *evalScratch
}

// BadStash parks the arena in a struct that outlives the claim.
func (w *worker) BadStash() {
	s := getScratch()
	w.scratch = s // want "stored through w"
	putScratch(s)
}

// BadReturn hands the arena out of a function whose signature does not
// say so — and never releases it.
func BadReturn() any {
	s := getScratch() // want "not released"
	return s          // want "returned from a non-accessor"
}

// Park mirrors machine/run.go's fork hand-off: a deliberate ownership
// transfer whose release happens elsewhere, recorded with an allow.
func (w *worker) Park() {
	s := getScratch() //pmevo:allow scratchescape -- fixture twin of the fork hand-off; the epilogue releases it
	w.scratch = s
}
