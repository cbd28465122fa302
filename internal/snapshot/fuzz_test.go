package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeed returns a well-formed two-section container exercising every
// primitive the encoder offers; the fuzzer mutates it from there.
func fuzzSeed() []byte {
	w := NewWriter()
	e := w.Section("alpha")
	e.U64(42)
	e.U32(7)
	e.U8(3)
	e.Bool(true)
	e.F64(1.5)
	e.Int(-9)
	e.U64s([]uint64{1, 2, 3})
	e.U8s([]byte("payload"))
	e.I64s([]int64{-1, 0, 1})
	e.F64s([]float64{0.5, -0.25})
	e.String("hello")
	w.Section("beta").U64(1)
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// hugeSliceClaim returns a well-formed container whose one payload makes
// drainSection read a U64s claiming 1<<40 elements from 8 remaining bytes:
// the decoder must refuse it without allocating.
func hugeSliceClaim() []byte {
	w := NewWriter()
	e := w.Section("huge")
	e.U8(5) // drainSection's selector for U64s
	e.U64(1 << 40)
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// oversizedLength returns a container, correct CRC included, whose one
// section header claims 1<<40 payload bytes with 8 left: parse must reject
// the length before slicing.
func oversizedLength() []byte {
	b := binary.LittleEndian.AppendUint32([]byte(Magic), Version)
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = append(b, 's')
	b = binary.LittleEndian.AppendUint64(b, 1<<40)
	b = binary.LittleEndian.AppendUint64(b, 7)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// FuzzSnapshotDecode feeds arbitrary bytes through the full decode surface:
// container parsing, section lookup, and every typed Decoder read. The
// contract under fuzz is the package's core promise — corrupted, truncated,
// or hostile input produces an error, never a panic and never an allocation
// larger than the input itself. For inputs that do parse, the format must be
// canonical: re-emitting the parsed sections reproduces the input byte for
// byte.
func FuzzSnapshotDecode(f *testing.F) {
	valid := fuzzSeed()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:len(valid)-5]) // truncated mid-stream
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // CRC mismatch
	f.Add(flipped)
	f.Add(hugeSliceClaim())
	f.Add(oversizedLength())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parse(data)
		if err != nil {
			return
		}
		// Canonical-format invariant: parse followed by emit is the identity
		// on every accepted stream.
		w := NewWriter()
		for i, name := range r.names {
			enc := w.Section(name)
			enc.buf = append(enc.buf, r.payloads[i]...)
		}
		var out bytes.Buffer
		if err := w.Emit(&out); err != nil {
			t.Fatalf("re-emit parsed stream: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("parse/emit round trip diverged (%d vs %d bytes)", out.Len(), len(data))
		}
		// Drain every section through the typed decoders; whatever the
		// payload bytes claim, reads must stay in bounds and errors sticky.
		for _, name := range r.names {
			d, err := r.Section(name)
			if err != nil {
				t.Fatalf("section %q: %v", name, err)
			}
			drainSection(d)
			_ = d.Finish()
		}
		_ = r.Finish()
	})
}

// drainSection walks a payload with a data-driven mix of typed reads, so the
// fuzzer steers which decode paths see which bytes.
func drainSection(d *Decoder) {
	for d.Err() == nil && d.Remaining() > 0 {
		switch d.U8() % 10 {
		case 0:
			d.U64()
		case 1:
			d.U32()
		case 2:
			d.U8()
		case 3:
			d.Bool()
		case 4:
			d.F64()
		case 5:
			_ = d.U64s()
		case 6:
			_ = d.U8s()
		case 7:
			_ = d.I64s()
		case 8:
			_ = d.F64s()
		case 9:
			_ = d.String()
		}
	}
}

// TestFuzzCorpusReachesItsCheck pins what each committed FuzzSnapshotDecode
// corpus entry exercises. The entries are written at one format version; a
// Version bump that leaves them behind would stop every one at the version
// check, so each must fail (or parse) for its own reason, and the entries
// the seeds also build must match them byte for byte.
func TestFuzzCorpusReachesItsCheck(t *testing.T) {
	valid := fuzzSeed()
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	cases := []struct {
		file string
		want string // parse error substring, "" when the stream parses
		seed []byte // the in-code seed it must equal, or nil
	}{
		{"valid", "", valid},
		{"huge-slice-claim", "", hugeSliceClaim()},
		{"oversized-length", "claims 1099511627776 bytes", oversizedLength()},
		{"truncated", "CRC mismatch", valid[:len(valid)-5]},
		{"crc-mismatch", "CRC mismatch", flipped},
		{"bad-version", "version", nil},
		{"empty", "too short", []byte{}},
		{"magic-only", "too short", []byte(Magic)},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			data := readCorpusEntry(t, c.file)
			if c.seed != nil && !bytes.Equal(data, c.seed) {
				t.Fatalf("corpus entry differs from its in-code seed")
			}
			_, err := parse(data)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("parse: %v, want success", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("parse error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// readCorpusEntry decodes a one-value []byte corpus file in the
// "go test fuzz v1" format.
func readCorpusEntry(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("unexpected corpus layout in %s", name)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if !ok || !ok2 {
		t.Fatalf("corpus entry %s is not a []byte value", name)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("corpus entry %s: %v", name, err)
	}
	return []byte(s)
}
