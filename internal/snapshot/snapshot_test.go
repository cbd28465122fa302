package snapshot

import (
	"bytes"
	"testing"
)

// TestResetReusesBuffer: a writer reset between streams writes each one
// byte-identical to a fresh writer's, and once its buffer has grown it
// allocates nothing.
func TestResetReusesBuffer(t *testing.T) {
	vals := make([]uint64, 1<<14)
	for i := range vals {
		vals[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	write := func(w *Writer) {
		w.Section("vals").U64s(vals)
		w.Section("name").String("stream")
	}
	fresh := NewWriter()
	write(fresh)
	want := fresh.Bytes()

	w := NewWriter()
	write(w)
	w.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		w.Reset()
		write(w)
		if !bytes.Equal(w.Bytes(), want) {
			t.Error("stream after Reset differs from a fresh writer's")
		}
	})
	if allocs != 0 {
		t.Errorf("a reset writer allocated %.0f times per stream, want 0", allocs)
	}
}
