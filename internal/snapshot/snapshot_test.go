package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// fillInner writes a small two-section stream, standing in for a machine.
func fillInner(w *Writer) error {
	w.Section("a").U64s([]uint64{1, 2, 3})
	w.Section("b").String("inner")
	return nil
}

// TestNestMatchesU8s: a stream nested in place is byte-for-byte the
// container whose inner stream was encoded on its own and copied in with
// U8s, and the nested stream parses back on its own.
func TestNestMatchesU8s(t *testing.T) {
	inner := NewWriter()
	if err := fillInner(inner); err != nil {
		t.Fatal(err)
	}
	copied := NewWriter()
	copied.Section("head").U8(7)
	copied.Section("system").U8s(inner.Bytes())
	copied.Section("tail").U64(9)

	nested := NewWriter()
	nested.Section("head").U8(7)
	if err := nested.Nest("system", fillInner); err != nil {
		t.Fatal(err)
	}
	nested.Section("tail").U64(9)
	if !bytes.Equal(nested.Bytes(), copied.Bytes()) {
		t.Fatalf("nested container differs from the copied one:\n got %x\nwant %x", nested.Bytes(), copied.Bytes())
	}

	r, err := NewReader(bytes.NewReader(nested.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("system")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parse(d.U8s()); err != nil {
		t.Errorf("nested stream does not parse on its own: %v", err)
	}
}

// TestNestPropagatesError: a failing inner writer fails the Nest.
func TestNestPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := NewWriter().Nest("system", func(*Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("Nest returned %v, want %v", err, boom)
	}
}

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
		_ = w.Nest("system", fillInner)
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
