package coherence

import (
	"testing"
	"unsafe"

	"oltpsim/internal/sim"
)

// TestLineTableDifferential drives lineTable and a plain map with the same
// randomized operation stream and demands identical observable state
// throughout. The table backs every directory transaction, so a probe or
// backward-shift-deletion bug here would silently corrupt coherence results;
// this is the regression net under it.
func TestLineTableDifferential(t *testing.T) {
	rng := sim.NewRNG(0xd1ff)
	tab := newLineTable(4) // tiny so growth and wraparound happen constantly
	ref := make(map[uint64]entry)

	// A small key universe with colliding strides forces long probe chains.
	key := func() uint64 { return uint64(rng.Intn(512)) * 64 }

	for op := 0; op < 200_000; op++ {
		line := key()
		switch rng.Intn(4) {
		case 0: // insert/update through ref()
			e := entry{sharers: sharerSet(rng.Uint64()), owner: int16(rng.Intn(8) + 1)}
			*tab.ref(line) = e
			ref[line] = e
		case 1: // delete
			tab.del(line)
			delete(ref, line)
		case 2: // read through get()
			want, ok := ref[line]
			if got := tab.get(line); got != want {
				t.Fatalf("op %d: get(%#x) = %+v, want %+v (present=%v)", op, line, got, want, ok)
			}
		case 3: // read through find()
			want, ok := ref[line]
			p := tab.find(line)
			if ok != (p != nil) {
				t.Fatalf("op %d: find(%#x) presence = %v, want %v", op, line, p != nil, ok)
			}
			if p != nil && *p != want {
				t.Fatalf("op %d: find(%#x) = %+v, want %+v", op, line, *p, want)
			}
		}
		if tab.live != len(ref) {
			t.Fatalf("op %d: live = %d, want %d", op, tab.live, len(ref))
		}
	}
	// Full sweep at the end: every key in the universe agrees.
	for k := uint64(0); k < 512*64; k += 64 {
		if got, want := tab.get(k), ref[k]; got != want {
			t.Fatalf("final sweep: get(%#x) = %+v, want %+v", k, got, want)
		}
	}
}

// TestLineTableZeroLine checks that line 0 (a legal address) is
// distinguishable from an empty slot.
func TestLineTableZeroLine(t *testing.T) {
	tab := newLineTable(4)
	if tab.find(0) != nil {
		t.Fatal("empty table claims to hold line 0")
	}
	tab.ref(0).owner = 3
	if p := tab.find(0); p == nil || p.owner != 3 {
		t.Fatal("line 0 not retrievable after insert")
	}
	tab.del(0)
	if tab.find(0) != nil || tab.live != 0 {
		t.Fatal("line 0 survived deletion")
	}
}

// TestEntryIsSixBytes pins the directory entry's footprint: a 16-bit sharer
// set, a 16-bit owner and two flags.
func TestEntryIsSixBytes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 6 {
		t.Fatalf("sizeof(entry) = %d bytes, want 6", got)
	}
}
