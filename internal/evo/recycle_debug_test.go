//go:build pmevodebug

package evo

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pmevo/internal/engine"
	"pmevo/internal/portmap"
)

// TestDebugRecycleGuardPanicsOnAliasedTail pins the `pmevodebug` recycle
// guard: when a slot past the survivors, whose mapping the next child is
// written into, holds a survivor's mapping, evolve must panic, naming the
// island and the generation, instead of overwriting the survivor.
func TestDebugRecycleGuardPanicsOnAliasedTail(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	svc, err := engine.NewService(set, engine.ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng, src := newCountedRand(1)
	isl := &island{idx: 2, rng: rng, src: src, inited: true, gens: 3, target: 4}
	slots := make([]individual, 8)
	gen := rand.New(rand.NewSource(1))
	for i := range slots {
		slots[i].m = portmap.Random(gen, portmap.RandomOptions{NumInsts: set.NumInsts, NumPorts: 3})
	}
	slots[5].m = slots[1].m // the aliased tail: a survivor's mapping among the discarded
	isl.pop = slots[:4]
	survivor := slots[1].m.Clone()

	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "island 2, generation 3") {
			t.Fatalf("evolve did not panic naming island 2 and generation 3: %s", msg)
		}
		if !slots[1].m.Equal(survivor) {
			t.Fatal("the survivor was overwritten before the guard fired")
		}
	}()
	isl.evolve(context.Background(), svc, set, Options{MaxGenerations: 10, NumPorts: 3, VolumeObjective: true})
}
