package engine

import (
	"math/rand"
	"sort"
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// FuzzEvaluateDelta drives the NewState/EvaluateDelta/Commit protocol on
// the fast path with a small mapping of 1–13 ports (so both the
// unit-table and the ThroughputOf route run) and an experiment set,
// both drawn from seed, and a sequence of edits decoded from edits, five
// bytes each: SetUopCount, RemoveUopAt, InsertUopAt or AddUop, then
// accept (Commit) or reject (revert). Every pending and every committed
// fitness must be bit-equal to a fresh Evaluate on the oracle twin.
func FuzzEvaluateDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, kSel uint8, edits []byte) {
		k := 1 + int(kSel)%(throughput.MaxUnitTablePorts+2)
		rng := rand.New(rand.NewSource(seed))
		numInsts := 1 + rng.Intn(5)
		set := &exp.Set{NumInsts: numInsts}
		for n := 1 + rng.Intn(8); n > 0; n-- {
			set.Measurements = append(set.Measurements, exp.Measurement{
				Exp:        portmap.RandomExperiment(rng, numInsts, 1+rng.Intn(3)),
				Throughput: 0.25 + 4*rng.Float64(),
			})
		}
		fast, err := NewService(set, ServiceOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewService(set, ServiceOptions{Workers: 1, Predictor: Default()})
		if err != nil {
			t.Fatal(err)
		}
		m := portmap.Random(rng, portmap.RandomOptions{NumInsts: numInsts, NumPorts: k, MaxUops: 3})
		st, err := fast.NewState(m)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, got Fitness) {
			t.Helper()
			want, err := twin.Evaluate(m)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFitness(got, want) {
				t.Fatalf("k=%d %s: fast %+v != oracle %+v under\n%s", k, what, got, want, m)
			}
		}
		check("NewState", st.Fitness())

		for n := 0; len(edits) >= 5 && n < 64; n++ {
			b := edits[:5]
			edits = edits[5:]
			inst := int(b[1]) % numInsts
			d := m.Decomp[inst]
			j := int(b[2]) % len(d)
			ports := portmap.PortSet(uint16(b[3])|uint16(b[4])<<8) & portmap.FullPortSet(k)
			count := 1 + int(b[3])%4
			var revert func()
			switch b[0] % 4 {
			case 0:
				orig := d[j].Count
				m.SetUopCount(inst, j, count)
				revert = func() { m.SetUopCount(inst, j, orig) }
			case 1:
				if len(d) == 1 {
					continue // every instruction keeps at least one µop
				}
				uc := m.RemoveUopAt(inst, j)
				revert = func() { m.InsertUopAt(inst, j, uc) }
			case 2:
				pos := sort.Search(len(d), func(i int) bool { return d[i].Ports >= ports })
				if ports.IsEmpty() || (pos < len(d) && d[pos].Ports == ports) {
					continue // InsertUopAt must keep the decomposition canonical
				}
				m.InsertUopAt(inst, pos, portmap.UopCount{Ports: ports, Count: count})
				revert = func() { m.RemoveUopAt(inst, pos) }
			default:
				if ports.IsEmpty() {
					continue
				}
				before := append([]portmap.UopCount(nil), d...)
				m.AddUop(inst, ports, count)
				revert = func() { m.SetDecomp(inst, before) }
			}
			fit, err := fast.EvaluateDelta(st, inst)
			if err != nil {
				t.Fatal(err)
			}
			check("pending", fit)
			if b[0]&4 != 0 {
				st.Commit()
			} else {
				revert()
			}
			check("committed", st.Fitness())
		}
	})
}
