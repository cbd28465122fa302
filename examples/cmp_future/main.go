// cmp_future explores the paper's concluding proposal: "Once memory system
// latencies are reduced through integration, the next logical step seems to
// be to tolerate the remaining latencies by exploiting the inherent
// thread-level parallelism in OLTP through techniques such as chip
// multiprocessing". The example arranges the same 8 cores as 8x1, 4x2 and
// 2x4 fully integrated chips and shows how cores sharing an L2 absorb
// intra-chip communication misses.
//
//	go run ./examples/cmp_future
//
// testdata/output.txt is the byte-exact golden of this output; main_test.go
// diffs against it (regenerate with go test ./examples/cmp_future -update).
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
	opt.MeasureTxns = 600

	fmt.Fprintln(w, "8 OLTP cores, fully integrated chips with shared 2 MB 8-way L2s:")
	fmt.Fprintf(w, "%-18s %12s %16s %14s\n", "arrangement", "cycles/txn", "remote miss/txn", "3-hop/txn")
	var first float64
	for _, perChip := range []int{1, 2, 4} {
		cfg := oltpsim.FullIntegrationConfig(8, 2*oltpsim.MB, 8)
		cfg.CoresPerChip = perChip
		cfg.Name = fmt.Sprintf("%d chips x %d cores", 8/perChip, perChip)
		res := opt.Run(cfg)
		remote := float64(res.Miss.RemoteClean()+res.Miss.RemoteDirty()) / float64(max(1, res.Txns))
		dirty := float64(res.Miss.RemoteDirty()) / float64(max(1, res.Txns))
		fmt.Fprintf(w, "%-18s %12.0f %16.1f %14.1f", cfg.Name, res.CyclesPerTxn(), remote, dirty)
		if first == 0 {
			first = res.CyclesPerTxn()
			fmt.Fprintln(w)
		} else {
			fmt.Fprintf(w, "   (%.2fx vs 8x1)\n", first/res.CyclesPerTxn())
		}
	}
	fmt.Fprintln(w, "\nSharing an L2 turns the hottest migratory lines (latches, buffer")
	fmt.Fprintln(w, "headers, branch rows) from 3-hop coherence misses into L2 hits for")
	fmt.Fprintln(w, "the cores on the same chip — the paper's CMP intuition, quantified.")
}
