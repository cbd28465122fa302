package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"oltpsim/internal/core"
	"oltpsim/internal/experiments"
)

// figRunner is one figure of a sweep and whether cmd/figures prints its L2
// miss block.
type figRunner struct {
	run    func(experiments.Options) experiments.Figure
	misses bool
}

// figSet is a figure workload: the runners one sweep calls and the
// processor count of their machines.
type figSet struct {
	runners []figRunner
	procs   int
	// nominal is one sweep's wall seconds on a 2-core host.
	nominal float64
}

// uniFigs are the uniprocessor bars: with a single node the directory,
// 3-hop and event-heap paths do almost nothing, so the tag arrays,
// reference generation and timing models carry the cost.
var uniFigs = figSet{procs: 1, nominal: 7.5, runners: []figRunner{
	{experiments.Fig05, true},
	{experiments.Fig07, true},
	{experiments.Fig10Uni, false},
	{experiments.Fig13Uni, false},
}}

// mpFigs are the 8-processor bars, where the coherence directory,
// dirty-remote misses and the 8-core event heap do their work.
var mpFigs = figSet{procs: 8, nominal: 18, runners: []figRunner{
	{experiments.Fig06, true},
	{experiments.Fig08, true},
	{experiments.Fig10MP, false},
	{experiments.Fig11, true},
	{experiments.Fig12Small, false},
	{experiments.Fig12Large, false},
	{experiments.Fig13MP, false},
}}

// figSetups is how many times a run builds every machine of its sweep.
const figSetups = 3

// figOptions is the paper protocol cmd/figures runs, at the given seed.
func figOptions(seed uint64) experiments.Options {
	o := experiments.DefaultOptions()
	o.Seed = seed
	o.Workers = workers()
	return o
}

// figSetup builds every machine of the sweep once, serially and sharing one
// Zipf zeta table as a sweep does: the runners at zero warmup and zero
// measured transactions construct each bar's harness and system and
// nothing more.
func figSetup(set figSet, seed uint64) {
	o := figOptions(seed)
	o.Workers = 1
	o.WarmupTxns, o.MeasureTxns = 0, 0
	for _, r := range set.runners {
		r.run(o)
	}
}

// sweep calls the runners in sequence, as cmd/figures does without
// -parallel, and returns the figures and the latency of every bar.
func sweep(set figSet, o experiments.Options, tr *tracer, parent int) ([]experiments.Figure, []float64, error) {
	var figs []experiments.Figure
	var lat []float64
	for _, r := range set.runners {
		bc := &barClock{start: time.Now(), last: map[uint64]time.Time{}, tr: tr}
		fid := tr.begin("experiments.figure", "", parent)
		bc.parent = fid
		o.Progress = bc.progress
		f := r.run(o)
		tr.end(fid)
		tr.rename(fid, f.ID)
		if len(bc.lat) != len(f.Bars) || len(bc.last) > o.Workers {
			return nil, nil, fmt.Errorf("%s: timed %d bars on %d goroutines, want %d bars on at most %d",
				f.ID, len(bc.lat), len(bc.last), len(f.Bars), o.Workers)
		}
		figs = append(figs, f)
		lat = append(lat, bc.lat...)
	}
	return figs, lat, nil
}

// barClock times the bars of one runner from Options.Progress. RunMany
// calls Progress on the worker goroutine that has just finished a bar, and
// that goroutine takes its next bar straight after, so the time from one
// call on a goroutine to the next (or from the runner's start to its first
// call) is one bar's latency. RunMany serializes the calls.
type barClock struct {
	start  time.Time
	last   map[uint64]time.Time
	lat    []float64
	tr     *tracer
	parent int
}

func (c *barClock) progress(done, total int) {
	now := time.Now()
	g := goid()
	prev, ok := c.last[g]
	if !ok {
		prev = c.start
	}
	c.last[g] = now
	c.lat = append(c.lat, now.Sub(prev).Seconds())
	c.tr.add("experiments.bar", fmt.Sprintf("bar %d of %d", done, total), c.parent, prev, now)
}

// goid returns the calling goroutine's id from the header line of its
// stack trace ("goroutine 7 [running]:").
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// figChecker checks every bar of a sweep: at seed 0 against
// figures_output.txt, at any other seed against direct serial runs of the
// same bars.
type figChecker struct {
	set    figSet
	golden string
	ref    []experiments.Figure
}

func newFigChecker(set figSet, seed uint64) (*figChecker, error) {
	c := &figChecker{set: set}
	if seed == 0 {
		b, err := os.ReadFile("figures_output.txt")
		if err != nil {
			return nil, err
		}
		c.golden = string(b)
		return c, nil
	}
	// Direct runs: every runner serially (Workers 1), the runners spread
	// over the host's cores.
	c.ref = make([]experiments.Figure, len(set.runners))
	sem := make(chan struct{}, workers())
	var wg sync.WaitGroup
	for i, r := range set.runners {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			o := figOptions(seed)
			o.Workers = 1
			c.ref[i] = r.run(o)
			<-sem
		}()
	}
	wg.Wait()
	return c, nil
}

// check records one operation per bar of figs.
func (c *figChecker) check(t *tally, figs []experiments.Figure) {
	for i, f := range figs {
		if c.ref == nil {
			block := strings.Contains(c.golden, f.RenderExec()) &&
				(!c.set.runners[i].misses || strings.Contains(c.golden, f.RenderMisses()))
			detail := strings.SplitAfter(f.RenderDetail(), "\n")
			for j, bar := range f.Bars {
				t.check(block && strings.Contains(c.golden, detail[j]),
					"%s bar %q: rendered block not in figures_output.txt", f.ID, bar.Name)
			}
			continue
		}
		ref := c.ref[i].Bars
		for j, bar := range f.Bars {
			t.check(j < len(ref) && sameJSON(bar, ref[j]),
				"%s bar %q differs from a direct serial run", f.ID, bar.Name)
		}
	}
}

// sameJSON reports whether a and b encode to the same JSON bytes.
func sameJSON(a, b any) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// paperMatch counts the paper-comparison checks within tolerance.
func paperMatch(figs []experiments.Figure) (within, total int) {
	for i := range figs {
		for _, row := range experiments.Compare(&figs[i]) {
			total++
			if row.WithinTolerance {
				within++
			}
		}
	}
	return within, total
}

func countBars(figs []experiments.Figure) int {
	n := 0
	for _, f := range figs {
		n += len(f.Bars)
	}
	return n
}

// timedFigs repeats whole sweeps for the run's seconds.
func timedFigs(set figSet) func(uint64, int) (*outcome, error) {
	return func(seed uint64, seconds int) (*outcome, error) {
		o := newOutcome()
		setups, err := repeat(figSetups, func() error { figSetup(set, seed); return nil })
		if err != nil {
			return nil, err
		}
		var sweeps [][]experiments.Figure
		var ops []float64
		rs, err := rounds(seconds, set.nominal, 1, func() error {
			figs, lat, err := sweep(set, figOptions(seed), nil, 0)
			sweeps = append(sweeps, figs)
			ops = append(ops, lat...)
			return err
		})
		if err != nil {
			return nil, err
		}
		checker, err := newFigChecker(set, seed)
		if err != nil {
			return nil, err
		}
		for _, figs := range sweeps {
			checker.check(&o.tally, figs)
		}
		if err := endToEnd(o, rs, setups, ops); err != nil {
			return nil, err
		}
		within, total := paperMatch(sweeps[0])
		o.note = fmt.Sprintf("%d bars per sweep, %d workers", countBars(sweeps[0]), workers())
		o.extra = append(o.extra, fmt.Sprintf("paper_match %d of %d paper checks within tolerance", within, total))
		return o, nil
	}
}

// tracedFigs runs one traced sweep, then records and replays the figure
// workload's representative machine shapes layer by layer.
func tracedFigs(set figSet) func(uint64, *tracer) (*outcome, error) {
	return func(seed uint64, tr *tracer) (*outcome, error) {
		o := newOutcome()
		var figs []experiments.Figure
		root := tr.begin("experiments.sweep", "", 0)
		rs, err := timeRound(func() error {
			var err error
			figs, _, err = sweep(set, figOptions(seed), tr, root)
			return err
		})
		tr.end(root)
		if err != nil {
			return nil, err
		}
		checker, err := newFigChecker(set, seed)
		if err != nil {
			return nil, err
		}
		checker.check(&o.tally, figs)
		within, _ := paperMatch(figs)
		o.setLayer("experiments.idle_share", 1-rs.cpu/(float64(workers())*rs.wall))
		o.setLayer("experiments.paper_match", float64(within))

		opts := figOptions(seed)
		var led ledger
		for _, cfg := range figShapes(set.procs) {
			s := shape{cfg: cfg, params: opts.Params(cfg), warmup: opts.WarmupTxns, window: figWindow}
			if err := traceShape(tr, &led, &o.tally, s); err != nil {
				return nil, err
			}
		}
		led.report(o)
		for _, n := range []string{"snapshot.save_ms", "snapshot.bytes", "server.submit_ms", "server.queue_wait_ms",
			"server.exec_ms", "server.checkpoints_per_job", "server.overhead_ms"} {
			o.setLayer(n, 0)
		}
		o.note = fmt.Sprintf("traced sweep of %d bars, %d shapes replayed", countBars(figs), len(figShapes(set.procs)))
		return o, nil
	}
}

// figWindow is the measured transactions recorded and replayed per traced
// figure shape, after the full paper warmup.
const figWindow = 1000

// figShapes are the traced machines of a figure workload: the Base bar
// every figure starts from, the fully integrated bar (8p) or integrated L2
// (uni), and an out-of-order bar for the OOO timing model.
func figShapes(procs int) []core.Config {
	named := func(cfg core.Config, name string, ooo bool) core.Config {
		cfg.Name = name
		if ooo {
			cfg.OutOfOrder = true
			cfg.OOO = core.DefaultOOO()
		}
		return cfg
	}
	if procs == 1 {
		return []core.Config{
			named(core.BaseConfig(1, 8*core.MB, 1), "Base 8M1w", false),
			named(core.IntegratedL2Config(1, 2*core.MB, 8, core.OnChipSRAM), "L2 2M8w", false),
			named(core.IntegratedL2Config(1, 2*core.MB, 8, core.OnChipSRAM), "L2 OOO", true),
		}
	}
	return []core.Config{
		named(core.BaseConfig(8, 8*core.MB, 1), "Base 8M1w", false),
		named(core.FullConfig(8, 2*core.MB, 8), "All", false),
		named(core.FullConfig(8, 2*core.MB, 8), "All OOO", true),
	}
}
