// integration_sweep walks the paper's integration ladder (Figure 10) on the
// 8-processor machine — Base, +L2, +MC, +CC/NR — and then uses the
// constructive crossing model to ask a question the paper could not: which
// single component cost has the most leverage on OLTP performance?
//
//	go run ./examples/integration_sweep
//
// testdata/output.txt is the byte-exact golden of this output; main_test.go
// diffs against it (regenerate with go test ./examples/integration_sweep
// -update).
package main

import (
	"fmt"
	"io"
	"os"

	"oltpsim"
)

func main() { run(os.Stdout) }

func run(w io.Writer) {
	opt := oltpsim.QuickOptions()
	opt.MeasureTxns = 800

	fmt.Fprintln(w, "Successive chip-level integration, 8 processors (paper Figure 10):")
	// The four rungs are independent simulations; fan them across the worker
	// pool (Workers=0 means GOMAXPROCS) and get the results back in order.
	ladder := opt.RunMany([]oltpsim.Config{
		oltpsim.BaseConfig(8, 8*oltpsim.MB, 1),
		oltpsim.IntegratedL2Config(8, 2*oltpsim.MB, 8, oltpsim.OnChipSRAM),
		oltpsim.L2MCConfig(8, 2*oltpsim.MB, 8),
		oltpsim.FullIntegrationConfig(8, 2*oltpsim.MB, 8),
	})
	base := ladder[0]
	for i := range ladder {
		r := &ladder[i]
		fmt.Fprintf(w, "  %-12s %8.0f cycles/txn  (%.2fx vs Base)\n",
			r.Name, r.CyclesPerTxn(), r.Speedup(&base))
	}

	// Leverage analysis: perturb one component of the crossing model at a
	// time and re-derive the full-integration latency table.
	fmt.Fprintln(w, "\nComponent leverage (full integration, +20 cycles on one component):")
	perturb := []struct {
		name  string
		apply func(*oltpsim.CrossingModel)
	}{
		{"L2 array access", func(m *oltpsim.CrossingModel) { m.IntSRAM += 20 }},
		{"memory core", func(m *oltpsim.CrossingModel) { m.MemCore += 20 }},
		{"network hop", func(m *oltpsim.CrossingModel) { m.LinkHop += 20 }},
		{"owner probe", func(m *oltpsim.CrossingModel) { m.OwnerProbe += 20 }},
	}
	ref := ladder[3]
	var perturbed []oltpsim.Config
	for _, p := range perturb {
		m := oltpsim.DefaultCrossingModel()
		p.apply(&m)
		lt := m.Derive(oltpsim.FullIntegration, 8, oltpsim.OnChipSRAM)
		cfg := oltpsim.FullIntegrationConfig(8, 2*oltpsim.MB, 8)
		cfg.LatencyOverride = &lt
		cfg.Name = "All +" + p.name
		perturbed = append(perturbed, cfg)
	}
	for i, r := range opt.RunMany(perturbed) {
		fmt.Fprintf(w, "  +20cy %-16s -> %6.0f cycles/txn (%+.1f%%)\n",
			perturb[i].name, r.CyclesPerTxn(), 100*(r.CyclesPerTxn()/ref.CyclesPerTxn()-1))
	}
	fmt.Fprintln(w, "\nThe L2 array access, which every L2 hit pays, has the most leverage.")
	fmt.Fprintln(w, "The network hop comes next: 2-hop misses cross it twice, 3-hop misses")
	fmt.Fprintln(w, "three times. The memory core (local and 2-hop misses) and the owner")
	fmt.Fprintln(w, "probe (3-hop misses only) move multiprocessor OLTP by a few percent.")
}
