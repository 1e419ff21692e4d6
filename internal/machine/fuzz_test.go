package machine_test

import (
	"fmt"
	"testing"

	"pmevo/internal/machine"
	"pmevo/internal/portmap"
)

// fuzzMachine decodes a small machine (1-6 ports, either policy,
// blocking µops), its specs and a loop body over 8 registers from data.
// Missing bytes read as zero, so every input decodes to a valid machine.
func fuzzMachine(data []byte) (machine.Config, []machine.InstSpec, []machine.Inst) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ports := 1 + next()%6
	cfg := machine.Config{
		NumPorts:      ports,
		DispatchWidth: 1 + next()%4,
		WindowSize:    1 + next()%32,
		Policy:        machine.SchedPolicy(next() % 2),
		FrequencyGHz:  1,
	}
	specs := make([]machine.InstSpec, 1+next()%4)
	for i := range specs {
		uops := make([]machine.UopSpec, 1+next()%3)
		for j := range uops {
			uops[j] = machine.UopSpec{Ports: portmap.PortSet(1 + next()%(1<<ports-1)), Block: 1 + next()%4}
		}
		specs[i] = machine.InstSpec{Uops: uops, Latency: 1 + next()%12}
	}
	body := make([]machine.Inst, 1+next()%8)
	for i := range body {
		in := machine.Inst{Spec: next() % len(specs)}
		for r := next() % 3; r > 0; r-- {
			in.Reads = append(in.Reads, next()%8)
		}
		for w := next() % 3; w > 0; w-- {
			in.Writes = append(in.Writes, next()%8)
		}
		body[i] = in
	}
	return cfg, specs, body
}

// FuzzPeriodDetection checks the fast machine against the brute-force
// twin on a fuzzed machine, body and iteration targets: Run at both
// targets and SteadyStateResult must agree on every Result field. The
// seed corpus in testdata/fuzz holds a recurrence whose port loads
// diverge inside a shared port group (diverging-loads) and inputs that
// break when the skipped periods' load growth is added only to the
// reported counts (tail-offset) or when choices go unrecorded
// (choice-recording).
func FuzzPeriodDetection(f *testing.F) {
	f.Add([]byte{}, uint8(30), uint8(119))
	f.Fuzz(func(t *testing.T, data []byte, warmup, measure uint8) {
		cfg, specs, body := fuzzMachine(data)
		fast, brute := twin(t, cfg, specs)
		ctx := fmt.Sprintf("%+v specs %+v body %+v", cfg, specs, body)
		diffKernel(t, ctx, fast, brute, body, int(warmup), 1+int(measure))
	})
}
