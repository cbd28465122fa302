package main

import (
	"bytes"
	"fmt"

	"oltpsim/internal/cache"
	"oltpsim/internal/coherence"
	"oltpsim/internal/core"
	"oltpsim/internal/cpu"
	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
	"oltpsim/internal/oltp"
	"oltpsim/internal/sim"
	"oltpsim/internal/snapshot"
	"oltpsim/internal/stats"
)

// The layer ledger. For each traced machine shape:
//
//  1. record: run the shape through a core.Workload wrapper that logs every
//     Next call over a window of committed transactions, and snapshot each
//     layer's state where the window starts;
//  2. replay the log through each layer's public functions alone, every
//     layer restored from its window-start snapshot and timed as one span:
//     oltp (Harness.Next), cache plus coherence (cache.Cache and
//     coherence.Directory along the memory path), coherence alone (the
//     directory calls the previous replay made), and cpu (InOrder/OOO);
//  3. time a normal serial run of the same window (core.step_ns_per_ref).
//
// The cache layer's time is the cache-plus-coherence replay minus the
// coherence replay (a span's self time). The residual is what the normal
// run spends beyond the replayed layers: the event heap, the step loop and
// fast-forward dispatch. The replayed memory path follows core's for
// machines without a RAC or victim buffer and with one core per chip,
// which every traced shape is.

// perLayerUnits lists every per-layer metric with its unit.
var perLayerUnits = map[string]string{
	"oltp.build_ms":              "ms",
	"oltp.ns_per_ref":            "ns",
	"oltp.refs_per_txn":          "count",
	"oltp.nonupdate_share":       "ratio",
	"cache.ns_per_access":        "ns",
	"cache.l1_miss_ratio":        "ratio",
	"cache.l2_miss_ratio":        "ratio",
	"cache.l2_accesses_per_txn":  "count",
	"coherence.ns_per_op":        "ns",
	"coherence.ops_per_txn":      "count",
	"coherence.dirty_share":      "ratio",
	"cpu.ns_per_ref":             "ns",
	"core.build_ms":              "ms",
	"core.step_ns_per_ref":       "ns",
	"core.ff_share":              "ratio",
	"core.residual_ns_per_ref":   "ns",
	"experiments.idle_share":     "ratio",
	"experiments.paper_match":    "count",
	"snapshot.save_ms":           "ms",
	"snapshot.bytes":             "bytes",
	"server.submit_ms":           "ms",
	"server.queue_wait_ms":       "ms",
	"server.exec_ms":             "ms",
	"server.checkpoints_per_job": "count",
	"server.overhead_ms":         "ms",
	"trace.closure":              "ratio",
	"trace.overhead":             "ratio",
}

// setLayer sets a per-layer metric with its declared unit.
func (o *outcome) setLayer(name string, v float64) { o.set(name, v, perLayerUnits[name]) }

// shape is one traced machine: its configuration, workload parameters and
// the protocol window that is recorded.
type shape struct {
	cfg    core.Config
	params oltp.Params
	warmup uint64
	window uint64
	// freshZeta gives every harness its own Zipf zeta table, as a server
	// job does; otherwise the shapes share params' table, as a sweep does.
	freshZeta bool
}

// ledger sums layer costs (host nanoseconds) and exact counts over a
// workload's traced shapes.
type ledger struct {
	refs, txns                   float64
	oltpNS, memNS, dirNS, cpuNS  float64
	cacheAccesses, dirOps        float64
	stepNS, steps, ff            float64
	recordNS                     float64
	harnessMS, systemMS          []float64
	l1Acc, l1Miss, l2Acc, l2Miss float64
	dirTxnOps, dirtyMiss         float64
	updateTxns, nonupdateTxns    float64
}

// closure splits the normal run's cost per reference into the replayed
// layers and the residual: residual = step - sum(layers) and closure =
// sum(layers) / step.
func closure(stepNS float64, layerNS ...float64) (residual, share float64) {
	var sum float64
	for _, l := range layerNS {
		sum += l
	}
	return stepNS - sum, ratio(sum, stepNS)
}

// report sets every layer metric the ledger measures.
func (l *ledger) report(o *outcome) {
	perRef := func(ns float64) float64 { return ratio(ns, l.refs) }
	cacheNS := l.memNS - l.dirNS
	step := perRef(l.stepNS)
	residual, share := closure(step, perRef(l.oltpNS), perRef(cacheNS), perRef(l.dirNS), perRef(l.cpuNS))
	set := o.setLayer
	set("oltp.build_ms", mean(l.harnessMS))
	set("oltp.ns_per_ref", perRef(l.oltpNS))
	set("oltp.refs_per_txn", ratio(l.refs, l.txns))
	set("oltp.nonupdate_share", ratio(l.nonupdateTxns, l.updateTxns+l.nonupdateTxns))
	set("cache.ns_per_access", ratio(cacheNS, l.cacheAccesses))
	set("cache.l1_miss_ratio", ratio(l.l1Miss, l.l1Acc))
	set("cache.l2_miss_ratio", ratio(l.l2Miss, l.l2Acc))
	set("cache.l2_accesses_per_txn", ratio(l.l2Acc, l.txns))
	set("coherence.ns_per_op", ratio(l.dirNS, l.dirOps))
	set("coherence.ops_per_txn", ratio(l.dirTxnOps, l.txns))
	set("coherence.dirty_share", ratio(l.dirtyMiss, l.l2Miss))
	set("cpu.ns_per_ref", perRef(l.cpuNS))
	set("core.build_ms", mean(l.systemMS))
	set("core.step_ns_per_ref", step)
	set("core.ff_share", ratio(l.ff, l.steps))
	set("core.residual_ns_per_ref", residual)
	set("trace.closure", share)
	set("trace.overhead", ratio(l.recordNS, l.stepNS)-1)
}

// call is one recorded Workload.Next call and its answer.
type call struct {
	now, wake uint64
	ref       memref.Ref
	cpu       int32
	st        kernel.Status
}

// recorder is the core.Workload wrapper that logs Next calls while on.
type recorder struct {
	h     *oltp.Harness
	on    bool
	calls []call
}

func (r *recorder) Next(cpu int, now uint64) (memref.Ref, kernel.Status, uint64) {
	ref, st, wake := r.h.Next(cpu, now)
	if r.on {
		r.calls = append(r.calls, call{now: now, wake: wake, ref: ref, cpu: int32(cpu), st: st})
	}
	return ref, st, wake
}

func (r *recorder) HomeOf(line uint64) int { return r.h.HomeOf(line) }
func (r *recorder) Committed() uint64      { return r.h.Committed() }

// encode captures one layer object's state.
func encode(save func(*snapshot.Encoder)) []byte {
	w := snapshot.NewWriter()
	save(w.Section("state"))
	var buf bytes.Buffer
	// Emitting into a bytes.Buffer cannot fail.
	_ = w.Emit(&buf)
	return buf.Bytes()
}

// decode restores state captured by encode.
func decode(data []byte, load func(*snapshot.Decoder) error) error {
	r, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	d, err := r.Section("state")
	if err != nil {
		return err
	}
	if err := load(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}
	return r.Finish()
}

// windowStart is every layer's state where the recorded window begins.
type windowStart struct {
	harness  []byte
	l1i, l1d [][]byte
	l2       [][]byte
	dir      []byte
	models   [][]byte
}

func modelState(m cpu.Model) []byte {
	switch m := m.(type) {
	case *cpu.InOrder:
		return encode(m.SaveState)
	case *cpu.OOO:
		return encode(m.SaveState)
	}
	panic(fmt.Sprintf("perfbench: unknown timing model %T", m))
}

func captureStart(sys *core.System, h *oltp.Harness) windowStart {
	cfg := sys.Config()
	ws := windowStart{harness: encode(h.SaveState), dir: encode(sys.Directory().SaveState)}
	for c := 0; c < cfg.Processors; c++ {
		ws.l1i = append(ws.l1i, encode(sys.L1I(c).SaveState))
		ws.l1d = append(ws.l1d, encode(sys.L1D(c).SaveState))
		ws.l2 = append(ws.l2, encode(sys.L2(c).SaveState))
		ws.models = append(ws.models, modelState(sys.Model(c)))
	}
	return ws
}

// newModel builds a fresh timing model of the configuration's kind.
func newModel(cfg core.Config) cpu.Model {
	if cfg.OutOfOrder {
		return cpu.NewOOO(cpu.OOOConfig{Width: cfg.OOO.Width, Window: cfg.OOO.Window,
			MemPorts: cfg.OOO.MemPorts, EffectiveWidth: cfg.OOO.EffectiveWidth})
	}
	return cpu.NewInOrder()
}

func loadModel(m cpu.Model, data []byte) error {
	switch m := m.(type) {
	case *cpu.InOrder:
		return decode(data, m.LoadState)
	case *cpu.OOO:
		return decode(data, m.LoadState)
	}
	return fmt.Errorf("unknown timing model %T", m)
}

// build times the construction of a shape's harness and system.
func build(l *ledger, tr *tracer, s shape, subject string, parent int) (*core.System, error) {
	p := s.params
	if s.freshZeta {
		p.TPCB.Zeta = sim.NewZetaCache()
	}
	id := tr.begin("oltp.build", subject, parent)
	h, err := oltp.NewHarness(p)
	l.harnessMS = append(l.harnessMS, tr.end(id)/1e6)
	if err != nil {
		return nil, err
	}
	id = tr.begin("core.build", subject, parent)
	sys, err := core.NewSystem(s.cfg, h)
	l.systemMS = append(l.systemMS, tr.end(id)/1e6)
	return sys, err
}

// traceShape records, replays and times one shape into the ledger. A
// replay that does not reproduce the recording is a failed check.
func traceShape(tr *tracer, l *ledger, t *tally, s shape) error {
	subject := s.cfg.Name
	parent := tr.begin("shape", subject, 0)
	defer tr.end(parent)
	end := s.warmup + s.window

	// 1. Record. The wrapper hides the harness's scheduler from the system,
	// so every reference goes through Next (no fast-forward).
	h, err := oltp.NewHarness(s.params)
	if err != nil {
		return err
	}
	rec := &recorder{h: h}
	sys, err := core.NewSystem(s.cfg, rec)
	if err != nil {
		return err
	}
	sys.RunUntil(s.warmup)
	start := captureStart(sys, h)
	sys.ResetStats()
	eng0 := h.Engine().Stats
	rec.on = true
	id := tr.begin("record", subject, parent)
	sys.RunUntil(end)
	l.recordNS += tr.end(id)
	rec.on = false
	recorded := sys.Collect(s.cfg.Name, sys.Committed()-s.warmup)
	eng1 := h.Engine().Stats
	l.updateTxns += float64(eng1.Txns - eng0.Txns)
	l.nonupdateTxns += float64(eng1.ReadTxns - eng0.ReadTxns + eng1.ScanTxns - eng0.ScanTxns)

	var refs int
	for i := range rec.calls {
		if rec.calls[i].st == kernel.StatusRef {
			refs++
		}
	}
	l.refs += float64(refs)
	l.txns += float64(s.window)

	// 3. The normal serial run of the same window, fast-forwarding on, its
	// machine built as the workload builds it.
	sys2, err := build(l, tr, s, subject, parent)
	if err != nil {
		return err
	}
	sys2.RunUntil(s.warmup)
	sys2.ResetStats()
	steps0, ff0 := sys2.Steps(), sys2.FastForwarded()
	id = tr.begin("core.run", subject, parent)
	sys2.RunUntil(end)
	l.stepNS += tr.end(id)
	steps, ff := sys2.Steps()-steps0, sys2.FastForwarded()-ff0
	l.steps += float64(steps)
	l.ff += float64(ff)
	res := sys2.Collect(s.cfg.Name, sys2.Committed()-s.warmup)
	t.check(sameJSON(res, recorded), "%s: recorded run's result differs from the normal run's", subject)
	t.check(steps == uint64(refs), "%s: normal run took %d steps, recording has %d references", subject, steps, refs)
	l.addProperties(&res, sys2.Directory())

	// 2. Replays.
	if err := replayOLTP(tr, l, t, s, start, rec.calls, subject, parent); err != nil {
		return err
	}
	mem, err := replayMemory(tr, l, s.cfg, h.HomeOf, sys.Latency(), start, rec.calls, subject, parent)
	if err != nil {
		return err
	}
	if err := replayCoherence(tr, l, t, s.cfg, h.HomeOf, start, mem, subject, parent); err != nil {
		return err
	}
	return replayCPU(tr, l, s.cfg, start, rec.calls, mem, subject, parent)
}

// addProperties accumulates the exact cache and coherence counts of a
// normal run's measured window.
func (l *ledger) addProperties(res *stats.RunResult, dir *coherence.Directory) {
	l.l1Acc += float64(res.L1IAccesses + res.L1DAccesses)
	l.l1Miss += float64(res.L1IMisses + res.L1DMisses)
	l.l2Acc += float64(res.L2Accesses)
	l.l2Miss += float64(res.Miss.Total())
	for c := 0; c < int(coherence.NumCategories); c++ {
		l.dirTxnOps += float64(dir.Stats.Reads[c] + dir.Stats.Writes[c])
	}
	l.dirtyMiss += float64(res.Miss.I[coherence.CatRemoteDirty] + res.Miss.I[coherence.CatRemoteDirtyRAC] +
		res.Miss.D[coherence.CatRemoteDirty] + res.Miss.D[coherence.CatRemoteDirtyRAC])
}

// replayOLTP feeds the recorded (cpu, now) calls into a fresh harness
// restored to the window start; it must answer every call as recorded.
func replayOLTP(tr *tracer, l *ledger, t *tally, s shape, start windowStart, calls []call, subject string, parent int) error {
	h, err := oltp.NewHarness(s.params)
	if err != nil {
		return err
	}
	if err := decode(start.harness, h.LoadState); err != nil {
		return fmt.Errorf("restoring harness: %w", err)
	}
	diverged := -1
	id := tr.begin("oltp.replay", subject, parent)
	for i := range calls {
		c := &calls[i]
		ref, st, wake := h.Next(int(c.cpu), c.now)
		if ref != c.ref || st != c.st || wake != c.wake {
			diverged = i
			break
		}
	}
	l.oltpNS += tr.end(id)
	t.check(diverged < 0, "%s: oltp replay diverged from the recording at call %d of %d", subject, diverged, len(calls))
	return nil
}

// dirOp is one directory call of the memory replay.
type dirOp struct {
	line uint64
	node int32
	kind uint8
}

const (
	opRead uint8 = iota
	opWrite
	opWriteback
	opEvictClean
)

// memReplay is the memory path rebuilt from the layers' public functions:
// per-CPU L1s, per-chip L2s and the directory, with the directory's peer
// callbacks applied to the replay's own caches.
type memReplay struct {
	l1i, l1d, l2 []*cache.Cache
	dir          *coherence.Directory
	lat          core.LatencyTable
	ops          []dirOp
	answers      []bool
	lats         []uint32
	cats         []cpu.StallCat
	accesses     uint64
}

func (m *memReplay) InvalidatePeer(node int, line uint64) bool {
	dirty := m.l1d[node].Invalidate(line) == cache.Modified
	m.l1i[node].Invalidate(line)
	if m.l2[node].Invalidate(line) == cache.Modified {
		dirty = true
	}
	m.answers = append(m.answers, dirty)
	return dirty
}

func (m *memReplay) DowngradePeer(node int, line uint64) bool {
	dirty := downgrade(m.l1d[node], line)
	if downgrade(m.l2[node], line) {
		dirty = true
	}
	m.answers = append(m.answers, dirty)
	return dirty
}

// downgrade demotes an exclusive or modified copy of line to shared and
// reports whether it was modified.
func downgrade(c *cache.Cache, line uint64) bool {
	st := c.Probe(line)
	if st == cache.Modified || st == cache.Exclusive {
		c.SetState(line, cache.Shared)
	}
	return st == cache.Modified
}

func (m *memReplay) dirCall(kind uint8, line uint64, node int) coherence.Result {
	m.ops = append(m.ops, dirOp{line: line, node: int32(node), kind: kind})
	if kind == opWrite {
		return m.dir.Write(line, node)
	}
	return m.dir.Read(line, node)
}

func (m *memReplay) latFor(cat coherence.Category) (uint32, cpu.StallCat) {
	switch cat {
	case coherence.CatLocal:
		return m.lat.Local, cpu.CatLocal
	case coherence.CatRemoteClean:
		return m.lat.Remote, cpu.CatRemote
	case coherence.CatRemoteDirty:
		return m.lat.RemoteDirty, cpu.CatRemoteDirty
	}
	return m.lat.RemoteDirtyRAC, cpu.CatRemoteDirty
}

func fillState(st cache.State, ifetch bool) cache.State {
	if ifetch || st == cache.Shared {
		return cache.Shared
	}
	return st
}

// fillL1 installs line in an L1, writing a dirty victim through to the L2.
func (m *memReplay) fillL1(l1 *cache.Cache, node int, line uint64, st cache.State) {
	if victim, vst := l1.Insert(line, st); vst == cache.Modified {
		m.l2[node].SetState(victim, cache.Modified)
	}
	m.accesses++
}

// insertL2 installs line in an L2 and retires the victim to the directory,
// pulling it out of the L1s first (inclusion).
func (m *memReplay) insertL2(node int, line uint64, st cache.State) {
	victim, vst := m.l2[node].Insert(line, st)
	m.accesses++
	if vst == cache.Invalid {
		return
	}
	if m.l1d[node].Invalidate(victim) == cache.Modified {
		vst = cache.Modified
	}
	m.l1i[node].Invalidate(victim)
	kind := opEvictClean
	if vst == cache.Modified {
		kind = opWriteback
		m.dir.WritebackDirty(victim, node)
	} else {
		m.dir.EvictClean(victim, node)
	}
	m.ops = append(m.ops, dirOp{line: victim, node: int32(node), kind: kind})
}

// access walks one reference of cpu c (chip c: one core per chip).
func (m *memReplay) access(c int, r memref.Ref) (uint32, cpu.StallCat) {
	line := r.Line()
	ifetch, write := r.Kind == memref.IFetch, r.Kind == memref.Store
	l1 := m.l1d[c]
	if ifetch {
		l1 = m.l1i[c]
	}
	m.accesses++
	st := l1.Access(line)
	if st != cache.Invalid {
		if !write || st == cache.Modified {
			return 0, cpu.CatNone
		}
		if st == cache.Exclusive {
			l1.SetState(line, cache.Modified)
			m.l2[c].SetState(line, cache.Modified)
			return 0, cpu.CatNone
		}
	}
	m.accesses++
	st2 := m.l2[c].Access(line)
	if st2 != cache.Invalid {
		switch {
		case !write:
			m.fillL1(l1, c, line, fillState(st2, ifetch))
			return m.lat.L2Hit, cpu.CatL2Hit
		case st2 == cache.Exclusive || st2 == cache.Modified:
			m.l2[c].SetState(line, cache.Modified)
			m.fillL1(l1, c, line, cache.Modified)
			return m.lat.L2Hit, cpu.CatL2Hit
		}
		res := m.dirCall(opWrite, line, c)
		m.l2[c].SetState(line, cache.Modified)
		m.fillL1(l1, c, line, cache.Modified)
		return m.latFor(res.Cat)
	}
	kind := opRead
	if write {
		kind = opWrite
	}
	res := m.dirCall(kind, line, c)
	m.insertL2(c, line, res.Grant)
	m.fillL1(l1, c, line, fillState(res.Grant, ifetch))
	return m.latFor(res.Cat)
}

// replayMemory replays the recorded references through restored L1s, L2s
// and directory, timing cache and coherence together.
func replayMemory(tr *tracer, l *ledger, cfg core.Config, home coherence.HomeFunc, lat core.LatencyTable,
	start windowStart, calls []call, subject string, parent int) (*memReplay, error) {
	m := &memReplay{lat: lat, lats: make([]uint32, 0, len(calls)), cats: make([]cpu.StallCat, 0, len(calls))}
	for c := 0; c < cfg.Processors; c++ {
		for _, pair := range []struct {
			dst  *[]*cache.Cache
			cfg  cache.Config
			data []byte
		}{
			{&m.l1i, cfg.L1CacheConfig("L1I"), start.l1i[c]},
			{&m.l1d, cfg.L1CacheConfig("L1D"), start.l1d[c]},
			{&m.l2, cfg.L2CacheConfig(), start.l2[c]},
		} {
			cc := cache.New(pair.cfg)
			if err := decode(pair.data, cc.LoadState); err != nil {
				return nil, fmt.Errorf("restoring cache: %w", err)
			}
			*pair.dst = append(*pair.dst, cc)
		}
	}
	m.dir = coherence.New(cfg.Processors, home, m)
	m.dir.Migratory = !cfg.NoMigratory
	if err := decode(start.dir, m.dir.LoadState); err != nil {
		return nil, fmt.Errorf("restoring directory: %w", err)
	}
	id := tr.begin("cache+coherence.replay", subject, parent)
	for i := range calls {
		if c := &calls[i]; c.st == kernel.StatusRef {
			lt, cat := m.access(int(c.cpu), c.ref)
			m.lats = append(m.lats, lt)
			m.cats = append(m.cats, cat)
		}
	}
	l.memNS += tr.end(id)
	l.cacheAccesses += float64(m.accesses)
	return m, nil
}

// script answers peer callbacks with the memory replay's recorded answers.
type script struct {
	answers []bool
	next    int
}

func (s *script) answer() bool {
	if s.next >= len(s.answers) {
		s.next++
		return false
	}
	s.next++
	return s.answers[s.next-1]
}

func (s *script) InvalidatePeer(int, uint64) bool { return s.answer() }
func (s *script) DowngradePeer(int, uint64) bool  { return s.answer() }

// replayCoherence replays the memory replay's directory calls through a
// restored directory alone, its peers answering from the recording.
func replayCoherence(tr *tracer, l *ledger, t *tally, cfg core.Config, home coherence.HomeFunc,
	start windowStart, mem *memReplay, subject string, parent int) error {
	sc := &script{answers: mem.answers}
	dir := coherence.New(cfg.Processors, home, sc)
	dir.Migratory = !cfg.NoMigratory
	if err := decode(start.dir, dir.LoadState); err != nil {
		return fmt.Errorf("restoring directory: %w", err)
	}
	id := tr.begin("coherence.replay", subject, parent)
	for _, op := range mem.ops {
		switch op.kind {
		case opRead:
			dir.Read(op.line, int(op.node))
		case opWrite:
			dir.Write(op.line, int(op.node))
		case opWriteback:
			dir.WritebackDirty(op.line, int(op.node))
		default:
			dir.EvictClean(op.line, int(op.node))
		}
	}
	l.dirNS += tr.end(id)
	l.dirOps += float64(len(mem.ops))
	t.check(sc.next == len(sc.answers), "%s: coherence replay made %d peer calls, the memory replay %d",
		subject, sc.next, len(sc.answers))
	return nil
}

// replayCPU replays the references, with the memory replay's latencies,
// and the idle waits through restored timing models.
func replayCPU(tr *tracer, l *ledger, cfg core.Config, start windowStart, calls []call, mem *memReplay,
	subject string, parent int) error {
	models := make([]cpu.Model, cfg.Processors)
	for c := range models {
		models[c] = newModel(cfg)
		if err := loadModel(models[c], start.models[c]); err != nil {
			return fmt.Errorf("restoring timing model: %w", err)
		}
	}
	k := 0
	id := tr.begin("cpu.replay", subject, parent)
	for i := range calls {
		c := &calls[i]
		switch c.st {
		case kernel.StatusRef:
			models[c.cpu].Account(c.ref, mem.lats[k], mem.cats[k])
			k++
		case kernel.StatusIdle:
			models[c.cpu].AdvanceTo(c.wake)
		}
	}
	l.cpuNS += tr.end(id)
	return nil
}
