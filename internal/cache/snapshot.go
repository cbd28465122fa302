package cache

import (
	"fmt"

	"oltpsim/internal/snapshot"
)

// SaveState writes the cache's mutable state: the way arrays, the LRU
// clock, and the access counters. Geometry is not written — the loader
// rebuilds the cache from the same configuration and only the contents are
// restored — but the array length acts as a cross-check.
func (c *Cache) SaveState(e *snapshot.Encoder) {
	e.U64s(c.tags)
	snapshot.U8sOf(e, c.states)
	e.U64s(c.stamps)
	e.U64(c.clock)
	e.U64(c.Accesses)
	e.U64(c.Hits)
}

// LoadState restores state saved by SaveState into a cache of identical
// geometry, validating every invariant the hot paths rely on.
func (c *Cache) LoadState(d *snapshot.Decoder) error {
	tags := d.U64s()
	states := d.U8s()
	stamps := d.U64s()
	clock := d.U64()
	accesses := d.U64()
	hits := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if len(tags) != len(c.tags) || len(states) != len(c.states) || len(stamps) != len(c.stamps) {
		return fmt.Errorf("cache %s: snapshot geometry %d/%d/%d ways, want %d",
			c.cfg.Name, len(tags), len(states), len(stamps), len(c.tags))
	}
	for i := range tags {
		if states[i] > uint8(Modified) {
			return fmt.Errorf("cache %s: way %d has invalid state %d", c.cfg.Name, i, states[i])
		}
		if (tags[i] == 0) != (states[i] == uint8(Invalid)) {
			return fmt.Errorf("cache %s: way %d tag/state validity mismatch", c.cfg.Name, i)
		}
		if tags[i] != 0 && c.setOf(tags[i]>>1) != uint64(i)/c.assoc {
			return fmt.Errorf("cache %s: way %d holds line %#x outside its set", c.cfg.Name, i, tags[i]>>1)
		}
	}
	if hits > accesses {
		return fmt.Errorf("cache %s: %d hits exceed %d accesses", c.cfg.Name, hits, accesses)
	}
	copy(c.tags, tags)
	for i := range states {
		c.states[i] = State(states[i])
	}
	copy(c.stamps, stamps)
	c.clock = clock
	c.Accesses = accesses
	c.Hits = hits
	return nil
}
