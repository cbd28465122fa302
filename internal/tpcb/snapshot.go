package tpcb

import (
	"fmt"

	"oltpsim/internal/snapshot"
)

// SaveState writes the engine's functional and structural state: table
// balances, history/undo cursors, the structural RNG, code-walk cursors,
// latch/pool/log state, and the workload-shape counters. Addresses, Zipf
// constants, and layout fields are derived from the configuration at
// construction and are not state.
func (e *Engine) SaveState(enc *snapshot.Encoder) {
	enc.I64s(e.accountBal)
	enc.I64s(e.tellerBal)
	enc.I64s(e.branchBal)
	enc.U64(e.historyLen)
	enc.I64(e.deltaSum)
	enc.Int(len(e.histSlot))
	for _, s := range e.histSlot {
		enc.I64(int64(s.block))
		enc.Int(s.rows)
	}
	enc.Int(e.histCursor)
	e.rng.SaveState(enc)
	enc.U64(e.Stats.Txns)
	enc.U64(e.Stats.RemoteBranch)
	enc.U64(e.Stats.HistoryBlocks)
	enc.U64(e.Stats.UndoBlocks)
	enc.U64(e.Stats.ReadTxns)
	enc.U64(e.Stats.ScanTxns)
	enc.Int(len(e.code.All))
	for _, f := range e.code.All {
		enc.Int(f.pos)
	}
	enc.U64(e.lt.Acquires)
	e.pool.SaveState(enc)
	e.log.SaveState(enc)
}

// LoadState restores an engine built from the identical configuration.
func (e *Engine) LoadState(d *snapshot.Decoder) error {
	accounts := d.I64s()
	tellers := d.I64s()
	branches := d.I64s()
	historyLen := d.U64()
	deltaSum := d.I64()
	nSlots := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if len(accounts) != len(e.accountBal) || len(tellers) != len(e.tellerBal) || len(branches) != len(e.branchBal) {
		return fmt.Errorf("tpcb: snapshot tables sized %d/%d/%d, want %d/%d/%d",
			len(accounts), len(tellers), len(branches), len(e.accountBal), len(e.tellerBal), len(e.branchBal))
	}
	if nSlots != len(e.histSlot) {
		return fmt.Errorf("tpcb: snapshot has %d history slots, want %d", nSlots, len(e.histSlot))
	}
	slots := make([]histSlot, nSlots)
	for i := range slots {
		slots[i] = histSlot{block: int32(d.I64()), rows: d.Int()}
	}
	histCursor := d.Int()
	e.rng.LoadState(d)
	stats := EngineStats{
		Txns:          d.U64(),
		RemoteBranch:  d.U64(),
		HistoryBlocks: d.U64(),
		UndoBlocks:    d.U64(),
		ReadTxns:      d.U64(),
		ScanTxns:      d.U64(),
	}
	nFns := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if nFns != len(e.code.All) {
		return fmt.Errorf("tpcb: snapshot has %d code functions, want %d", nFns, len(e.code.All))
	}
	poss := make([]int, nFns)
	for i := range poss {
		poss[i] = d.Int()
	}
	acquires := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	for i, s := range slots {
		window := int32(e.cfg.HistoryWindowBlocks)
		if s.block < e.historyBlock0 || s.block >= e.historyBlock0+window || s.rows < 0 {
			return fmt.Errorf("tpcb: history slot %d (block %d, rows %d) out of range", i, s.block, s.rows)
		}
	}
	for i, pos := range poss {
		if pos < 0 || pos >= e.code.All[i].SizeLines {
			return fmt.Errorf("tpcb: code cursor %d for %s out of range", pos, e.code.All[i].Name)
		}
	}
	if err := e.pool.LoadState(d); err != nil {
		return err
	}
	if err := e.log.LoadState(d); err != nil {
		return err
	}
	copy(e.accountBal, accounts)
	copy(e.tellerBal, tellers)
	copy(e.branchBal, branches)
	e.historyLen = historyLen
	e.deltaSum = deltaSum
	copy(e.histSlot, slots)
	e.histCursor = histCursor
	e.Stats = stats
	for i, f := range e.code.All {
		f.pos = poss[i]
	}
	e.lt.Acquires = acquires
	return nil
}

// SaveState writes the persistent walk cursor; everything else in a CodeFn
// is fixed at construction.
func (f *CodeFn) SaveState(e *snapshot.Encoder) { e.Int(f.pos) }

// LoadState restores the walk cursor.
func (f *CodeFn) LoadState(d *snapshot.Decoder) error {
	pos := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if pos < 0 || pos >= f.SizeLines {
		return fmt.Errorf("tpcb: code cursor %d for %s out of range", pos, f.Name)
	}
	f.pos = pos
	return nil
}

// SaveState writes the per-session transaction cursors. ID, PGABase, and
// UndoSeg are fixed at construction.
func (s *Session) SaveState(e *snapshot.Encoder) {
	e.Int(s.undoBlockIdx)
	e.Int(s.undoOff)
	snapshot.I64sOf(e, s.pinned)
	e.U64(s.lastLSN)
	e.I64(int64(s.scanBlock))
}

// LoadState restores the session cursors.
func (s *Session) LoadState(d *snapshot.Decoder) error {
	idx := d.Int()
	off := d.Int()
	pinned := d.I64s()
	lastLSN := d.U64()
	scanBlock := d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	if idx < 0 || off < 0 {
		return fmt.Errorf("tpcb: session %d undo cursor %d/%d negative", s.ID, idx, off)
	}
	if scanBlock < 0 {
		return fmt.Errorf("tpcb: session %d scan cursor %d negative", s.ID, scanBlock)
	}
	s.undoBlockIdx = idx
	s.undoOff = off
	s.pinned = s.pinned[:0]
	for _, f := range pinned {
		s.pinned = append(s.pinned, int32(f))
	}
	s.lastLSN = lastLSN
	s.scanBlock = int32(scanBlock)
	return nil
}

// SaveState writes the buffer pool's frame table, free list (a LIFO whose
// order is architectural), LRU clock, dirty queue, and counters. The
// block-to-frame map is derived from the frame table and rebuilt on load.
func (p *BufferPool) SaveState(e *snapshot.Encoder) {
	e.Int(len(p.frames))
	for _, fr := range p.frames {
		e.I64(int64(fr.block))
		e.Bool(fr.dirty)
		e.Bool(fr.inDirty)
		e.U64(fr.lastUse)
	}
	snapshot.I64sOf(e, p.free)
	e.U64(p.clock)
	snapshot.I64sOf(e, p.dirtyQueue)
	e.U64(p.Stats.Gets)
	e.U64(p.Stats.Misses)
	e.U64(p.Stats.Evictions)
	e.U64(p.Stats.DirtyMarked)
	e.U64(p.Stats.Cleaned)
}

// LoadState restores a pool of identical frame count and rebuilds the
// block-to-frame index.
func (p *BufferPool) LoadState(d *snapshot.Decoder) error {
	n := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(p.frames) {
		return fmt.Errorf("tpcb: snapshot has %d frames, want %d", n, len(p.frames))
	}
	frames := make([]frame, n)
	for i := range frames {
		frames[i] = frame{
			block:   int32(d.I64()),
			dirty:   d.Bool(),
			inDirty: d.Bool(),
			lastUse: d.U64(),
		}
	}
	free := d.I64s()
	clock := d.U64()
	dirtyQueue := d.I64s()
	stats := PoolStats{
		Gets:        d.U64(),
		Misses:      d.U64(),
		Evictions:   d.U64(),
		DirtyMarked: d.U64(),
		Cleaned:     d.U64(),
	}
	if err := d.Err(); err != nil {
		return err
	}
	b2f := make(map[int32]int32, len(p.blockToFrame))
	for i, fr := range frames {
		if fr.block < -1 {
			return fmt.Errorf("tpcb: frame %d holds invalid block %d", i, fr.block)
		}
		if fr.block >= 0 {
			if _, dup := b2f[fr.block]; dup {
				return fmt.Errorf("tpcb: block %d resident in two frames", fr.block)
			}
			b2f[fr.block] = int32(i)
		}
	}
	for _, f := range free {
		if f < 0 || f >= int64(n) || frames[f].block != -1 {
			return fmt.Errorf("tpcb: free list entry %d invalid", f)
		}
	}
	for _, f := range dirtyQueue {
		if f < 0 || f >= int64(n) {
			return fmt.Errorf("tpcb: dirty queue entry %d out of range", f)
		}
	}
	copy(p.frames, frames)
	p.free = p.free[:0]
	for _, f := range free {
		p.free = append(p.free, int32(f))
	}
	p.clock = clock
	p.dirtyQueue = p.dirtyQueue[:0]
	for _, f := range dirtyQueue {
		p.dirtyQueue = append(p.dirtyQueue, int32(f))
	}
	p.blockToFrame = b2f
	p.Stats = stats
	return p.CheckConsistency()
}

// SaveState writes the redo log's LSN horizon and counters.
func (l *RedoLog) SaveState(e *snapshot.Encoder) {
	e.U64(l.nextLSN)
	e.U64(l.requestedLSN)
	e.U64(l.flushedLSN)
	e.U64(l.Stats.Appends)
	e.U64(l.Stats.BytesWritten)
	e.U64(l.Stats.Gathers)
	e.U64(l.Stats.Overruns)
}

// LoadState restores the log position.
func (l *RedoLog) LoadState(d *snapshot.Decoder) error {
	next := d.U64()
	requested := d.U64()
	flushed := d.U64()
	stats := LogStats{
		Appends:      d.U64(),
		BytesWritten: d.U64(),
		Gathers:      d.U64(),
		Overruns:     d.U64(),
	}
	if err := d.Err(); err != nil {
		return err
	}
	if requested > next || flushed > next {
		return fmt.Errorf("tpcb: log LSNs out of order (next %d, requested %d, flushed %d)", next, requested, flushed)
	}
	l.nextLSN = next
	l.requestedLSN = requested
	l.flushedLSN = flushed
	l.Stats = stats
	return nil
}
