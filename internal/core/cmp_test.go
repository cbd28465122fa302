package core

import (
	"testing"

	"oltpsim/internal/cache"
	"oltpsim/internal/mem"
	"oltpsim/internal/memref"
	"oltpsim/internal/oltp"
)

func cmpCfg(cores, perChip int) Config {
	cfg := FullConfig(cores, 2*MB, 8)
	cfg.CoresPerChip = perChip
	return cfg
}

func TestCMPValidation(t *testing.T) {
	cfg := cmpCfg(8, 3) // 8 % 3 != 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("non-dividing CoresPerChip accepted")
	}
	if err := cmpCfg(8, 2).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCMPSharedL2 checks constructive sharing: a line written by core 0 is
// an L2 hit for core 1 on the same chip — no directory transaction, no
// remote miss.
func TestCMPSharedL2(t *testing.T) {
	src := newScript(4) // 4 cores on 2 chips
	src.add(0, memref.Ref{Addr: 4096, Kind: memref.Store})
	src.add(1, memref.Ref{Addr: 4096, Kind: memref.Load}) // same chip as 0
	cfg := cmpCfg(4, 2)
	sys := runScript(t, cfg, src)
	if sys.Chips() != 2 {
		t.Fatalf("chips = %d", sys.Chips())
	}
	res := sys.Collect("t", 1)
	// One miss total (core 0's cold store); core 1's read hits the shared L2.
	if got := res.Miss.Total(); got != 1 {
		t.Fatalf("misses %d, want 1 (second core should hit the shared L2)", got)
	}
	if res.Miss.RemoteDirty() != 0 {
		t.Fatal("intra-chip sharing produced a remote dirty miss")
	}
	if sys.Model(1).Breakdown().L2Hit == 0 {
		t.Fatal("core 1's read was not an L2 hit")
	}
}

// TestCMPCrossChipStillRemote: cores on different chips still communicate
// through the directory.
func TestCMPCrossChipStillRemote(t *testing.T) {
	src := newScript(4)
	src.add(0, memref.Ref{Addr: 4096, Kind: memref.Store}) // chip 0
	src.add(2, memref.Ref{Addr: 4096, Kind: memref.Load})  // chip 1
	sys := runScript(t, cmpCfg(4, 2), src)
	res := sys.Collect("t", 1)
	if res.Miss.RemoteDirty() != 1 {
		t.Fatalf("cross-chip dirty read: remote dirty misses %d, want 1", res.Miss.RemoteDirty())
	}
}

// TestCMPSiblingWriteInvariant: two cores of one chip alternately writing a
// line must never both hold it Modified in their L1s.
func TestCMPSiblingWriteInvariant(t *testing.T) {
	src := newScript(2)
	for i := 0; i < 50; i++ {
		src.add(0, memref.Ref{Addr: 4096, Kind: memref.Store})
		src.add(1, memref.Ref{Addr: 4096, Kind: memref.Store})
	}
	sys := runScript(t, cmpCfg(2, 2), src)
	n := sys.nodes[0]
	holders := 0
	for _, co := range n.cores {
		if st := co.l1d.Probe(4096); st == cache.Modified || st == cache.Exclusive {
			holders++
		}
	}
	if holders > 1 {
		t.Fatalf("%d sibling L1s hold the line exclusively", holders)
	}
}

// TestCMPDirtySiblingReadMergesToL2: core 0 dirties a line in its L1
// (silently via E); core 1's read must see the dirtiness merged into the
// shared L2 and both end up Shared.
func TestCMPDirtySiblingReadMergesToL2(t *testing.T) {
	src := newScript(2)
	src.add(0, memref.Ref{Addr: 4096, Kind: memref.Load})  // E grant
	src.add(0, memref.Ref{Addr: 4096, Kind: memref.Store}) // silent E->M
	// Pad core 1's clock with busy work so its read executes after core 0's
	// store in the global time order.
	for i := 0; i < 10; i++ {
		src.add(1, memref.Ref{Addr: 1 << 30, Kind: memref.IFetch, Instrs: 16})
	}
	src.add(1, memref.Ref{Addr: 4096, Kind: memref.Load})
	sys := runScript(t, cmpCfg(2, 2), src)
	if st := sys.nodes[0].l2.Probe(4096); st != cache.Modified {
		t.Fatalf("chip L2 state %v, want Modified (dirtiness merged)", st)
	}
	if st := sys.nodes[0].cores[0].l1d.Probe(4096); st == cache.Modified || st == cache.Exclusive {
		t.Fatalf("writer core still exclusive (%v) after sibling read", st)
	}
}

// TestCMPEndToEnd runs the OLTP workload on a 2-chip x 2-core machine and
// checks the paper-conclusion direction: CMP cores sharing an L2 turn some
// inter-processor communication into L2 hits, so per-transaction remote
// traffic drops versus 4 single-core chips.
func TestCMPEndToEnd(t *testing.T) {
	opt := func(perChip int) (Config, oltp.Params) {
		cfg := FullConfig(4, 2*MB, 8)
		cfg.CoresPerChip = perChip
		p := oltp.TestParams(4)
		p.CoresPerChip = perChip
		return cfg, p
	}

	run := func(perChip int) (cyclesPerTxn float64, remotePerTxn float64) {
		cfg, p := opt(perChip)
		sys := MustNewSystem(cfg, oltp.MustNewHarness(p))
		res := sys.Run(50, 150)
		return res.CyclesPerTxn(),
			float64(res.Miss.RemoteClean()+res.Miss.RemoteDirty()) / float64(res.Txns)
	}

	_, remoteSMP := run(1)
	cmpCyc, remoteCMP := run(2)
	if cmpCyc <= 0 {
		t.Fatal("CMP run degenerate")
	}
	if remoteCMP >= remoteSMP {
		t.Fatalf("CMP remote misses/txn %.1f not below SMP %.1f (shared L2 should absorb intra-chip sharing)",
			remoteCMP, remoteSMP)
	}
}

// TestCMPContentionUsesRequestingCoreClock: on a chip with two cores, a
// miss is queued at the memory controller at the missing core's own clock.
// Core 0 misses first at time 0 and then runs a thousand instructions
// ahead; core 1 then misses at its clock 0 on the same bank, so it must
// queue behind core 0's bank occupancy. Issued at core 0's clock instead,
// the bank would look long free and the queueing would vanish.
func TestCMPContentionUsesRequestingCoreClock(t *testing.T) {
	cfg := cmpCfg(2, 2) // one chip, two cores
	cfg.Contention = true
	src := newScript(2)
	src.add(0, memref.Ref{Addr: 0, Kind: memref.IFetch, Instrs: 1000})
	// 16 banks, line-interleaved: 16 lines on is the same bank.
	src.add(1, memref.Ref{Addr: 16 * memref.LineBytes, Kind: memref.Load})
	sys := runScript(t, cfg, src)

	busy := uint64(mem.DefaultConfig().BankBusyCycles)
	if q := sys.mcs[0].Stats.QueueCycles; q != busy {
		t.Fatalf("memory queueing = %d cycles, want %d (core 1 queued behind core 0's access)", q, busy)
	}
	if got, want := sys.Model(1).Now(), uint64(sys.Latency().Local)+busy; got != want {
		t.Fatalf("core 1 clock = %d, want local latency + queueing = %d", got, want)
	}
	if c0 := sys.Model(0).Now(); c0 <= sys.Model(1).Now() {
		t.Fatalf("core 0 clock %d not ahead of core 1's %d; the test needs the clocks to differ", c0, sys.Model(1).Now())
	}
}
