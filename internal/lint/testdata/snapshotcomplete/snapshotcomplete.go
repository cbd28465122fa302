// Package snapshotcomplete is the oltpvet fixture for the snapshot-coverage
// analyzer: one type per rule, firing cases annotated with want comments and
// the legal variants beside them. The bare //oltpvet:derived marker on
// Bare.idx is additionally reported by the annotation scanner on its own
// line, which a want comment cannot sit on; program_test.go asserts it by
// hand.
package snapshotcomplete

// Enc is a stand-in encoder: SaveState/LoadState pair by name, whatever the
// parameter shape, so the fixture needs no real serialization machinery.
type Enc struct {
	words []uint64
	r     int
}

// U64 records one word.
func (e *Enc) U64(v uint64) { e.words = append(e.words, v) }

// Next replays one word.
func (e *Enc) Next() uint64 {
	v := e.words[e.r]
	e.r++
	return v
}

// Machine exercises the core field rules: clock is covered through a
// same-package callee, missing is saved but never restored, memo is a
// legitimately derived index, stale carries an annotation the pair has
// outgrown, and cfg is constructor-only configuration.
type Machine struct {
	clock   uint64
	missing uint64 // want "Machine.missing is mutated outside constructors but not referenced by LoadState"
	//oltpvet:derived rebuilt from scratch by reindex on load
	memo map[uint64]int
	//oltpvet:derived the pair covers it, so this annotation is stale
	stale uint64 // want "Machine.stale carries //oltpvet:derived but is referenced by both SaveState and LoadState; drop the stale annotation"
	cfg   int
}

// NewMachine is the constructor: its writes are initialization, not
// mutation, so cfg stays immutable in the analyzer's eyes.
func NewMachine(cfg int) *Machine {
	return &Machine{cfg: cfg, memo: make(map[uint64]int)}
}

// Tick mutates every field the pair is audited for.
func (m *Machine) Tick(line uint64) {
	m.clock++
	m.missing++
	m.stale++
	m.memo[line] = int(m.clock)
}

// SaveState covers clock only through emitClock: references in same-package
// transitive callees count.
func (m *Machine) SaveState(e *Enc) {
	m.emitClock(e)
	e.U64(m.missing)
	e.U64(m.stale)
}

// LoadState restores clock and stale; missing is the silent omission the
// analyzer exists to catch, memo is rebuilt by reindex.
func (m *Machine) LoadState(e *Enc) {
	m.clock = e.Next()
	m.stale = e.Next()
	m.reindex()
}

func (m *Machine) emitClock(e *Enc) { e.U64(m.clock) }

func (m *Machine) reindex() { m.memo = make(map[uint64]int) }

// Base is embedded in Wrap: a reference to the promoted N covers the
// embedded field itself.
type Base struct{ N uint64 }

// Wrap serializes the embedded state only through promotion and must stay
// quiet.
type Wrap struct {
	Base
	extra uint64
}

// Bump mutates through promotion, which must also count as a write to the
// embedded field.
func (w *Wrap) Bump() {
	w.N++
	w.extra++
}

// SaveState references the promoted field, covering Base.
func (w *Wrap) SaveState(e *Enc) {
	e.U64(w.N)
	e.U64(w.extra)
}

// LoadState restores through promotion too.
func (w *Wrap) LoadState(e *Enc) {
	w.N = e.Next()
	w.extra = e.Next()
}

// Lit restores itself wholesale through a keyed composite literal: each
// keyed field is covered.
type Lit struct {
	a, b uint64
}

// Step mutates both fields.
func (l *Lit) Step() {
	l.a++
	l.b++
}

// SaveState writes both fields.
func (l *Lit) SaveState(e *Enc) {
	e.U64(l.a)
	e.U64(l.b)
}

// LoadState assigns a keyed literal, covering a and b.
func (l *Lit) LoadState(e *Enc) {
	*l = Lit{a: e.Next(), b: e.Next()}
}

// Zeroed shows that an empty literal covers nothing: resetting to the zero
// value is exactly the omission shape being hunted.
type Zeroed struct {
	n uint64 // want "Zeroed.n is mutated outside constructors but not referenced by LoadState"
}

// Inc mutates n.
func (z *Zeroed) Inc() { z.n++ }

// SaveState writes n.
func (z *Zeroed) SaveState(e *Enc) { e.U64(z.n) }

// LoadState zeroes the whole value, silently dropping n.
func (z *Zeroed) LoadState(e *Enc) { *z = Zeroed{} }

// Half has a save method and no load: a checkpoint that lies.
type Half struct{ n uint64 }

// Inc mutates n.
func (h *Half) Inc() { h.n++ }

// SaveState has no LoadState counterpart.
func (h *Half) SaveState(e *Enc) { e.U64(h.n) } // want "Half has SaveState but no matching load method"

// Emitter's Load is not a snapshot half — only SaveState/LoadState are —
// so the lone method is not reported.
type Emitter struct{ addr uint64 }

// Load issues a load reference; the name collides with the snapshot
// convention but the signature does not.
func (e *Emitter) Load(addr uint64, dep int) { e.addr = addr + uint64(dep) }

// Bare shows that a reasonless derived marker exempts nothing: the field is
// still audited (and the bare marker itself is reported on its own line).
type Bare struct {
	//oltpvet:derived
	idx uint64 // want "Bare.idx is mutated outside constructors but not referenced by SaveState or LoadState"
}

// Inc mutates idx.
func (b *Bare) Inc() { b.idx++ }

// SaveState ignores idx.
func (b *Bare) SaveState(e *Enc) { e.U64(0) }

// LoadState ignores idx.
func (b *Bare) LoadState(e *Enc) { _ = e.Next() }
