package coherence

import (
	"cmp"
	"fmt"
	"slices"

	"oltpsim/internal/snapshot"
)

// SaveState writes the directory's line table and protocol counters. The
// table is dumped as its allocated size plus the live (key, entry) pairs in
// ascending key order: the canonical ordering makes Save→Load→Save
// byte-stable regardless of the insertion history that produced the slot
// layout (nothing ever iterates the table, so the layout itself is not
// architectural state).
func (d *Directory) SaveState(e *snapshot.Encoder) {
	t := d.entries
	type pair struct {
		key uint64
		ent entry
	}
	pairs := make([]pair, 0, t.live)
	for i, k := range t.keys {
		if k != 0 {
			pairs = append(pairs, pair{key: k, ent: t.entries[i]})
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	e.Int(len(t.keys))
	e.Int(len(pairs))
	for _, p := range pairs {
		e.U64(p.key)
		e.U64(uint64(p.ent.sharers))
		e.I64(int64(p.ent.owner))
		e.Bool(p.ent.dirty)
		e.Bool(p.ent.inRAC)
	}
	e.U64s(d.Stats.Reads[:])
	e.U64s(d.Stats.Writes[:])
	e.U64(d.Stats.Upgrades)
	e.U64(d.Stats.Invalidations)
	e.U64(d.Stats.Writebacks)
	e.U64(d.Stats.ReplHints)
	e.U64(d.Stats.RACMigrations)
	e.U64(d.Stats.ExclusiveGrant)
}

// LoadState rebuilds the line table by probe-inserting the dumped pairs
// into a fresh allocation of the saved size, then restores the counters.
func (d *Directory) LoadState(dec *snapshot.Decoder) error {
	size := dec.Int()
	live := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if size < 1024 || size&(size-1) != 0 {
		return fmt.Errorf("coherence: table size %d is not a power of two >= 1024", size)
	}
	if live < 0 || live*4 >= size*3 {
		return fmt.Errorf("coherence: %d live entries overflow table of %d slots", live, size)
	}
	t := &lineTable{}
	t.alloc(size)
	var prevKey uint64
	for i := 0; i < live; i++ {
		key := dec.U64()
		sharers := dec.U64()
		owner := dec.I64()
		ent := entry{
			sharers: sharerSet(sharers),
			owner:   int16(owner),
			dirty:   dec.Bool(),
			inRAC:   dec.Bool(),
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		if key&1 == 0 {
			return fmt.Errorf("coherence: entry %d key %#x missing validity bit", i, key)
		}
		if i > 0 && key <= prevKey {
			return fmt.Errorf("coherence: entry %d key %#x not in ascending order", i, key)
		}
		prevKey = key
		// Both range checks read the decoded words, before the narrowing
		// above could drop high bits.
		if owner < 0 || owner > int64(d.nodes) {
			return fmt.Errorf("coherence: entry %d owner %d out of range 0..%d", i, owner, d.nodes)
		}
		if sharers>>uint(d.nodes) != 0 {
			return fmt.Errorf("coherence: entry %d sharer bits beyond %d nodes", i, d.nodes)
		}
		if ent.sharers.empty() && !ent.hasOwner() {
			return fmt.Errorf("coherence: entry %d is the zero entry and should be absent", i)
		}
		for j := t.slotOf(key); ; j = (j + 1) & t.mask {
			if t.keys[j] == 0 {
				t.keys[j] = key
				t.entries[j] = ent
				break
			}
		}
	}
	t.live = live
	stats := Stats{}
	reads := dec.U64s()
	writes := dec.U64s()
	stats.Upgrades = dec.U64()
	stats.Invalidations = dec.U64()
	stats.Writebacks = dec.U64()
	stats.ReplHints = dec.U64()
	stats.RACMigrations = dec.U64()
	stats.ExclusiveGrant = dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(reads) != int(NumCategories) || len(writes) != int(NumCategories) {
		return fmt.Errorf("coherence: stats have %d/%d categories, want %d", len(reads), len(writes), NumCategories)
	}
	copy(stats.Reads[:], reads)
	copy(stats.Writes[:], writes)
	d.entries = t
	d.Stats = stats
	return nil
}
