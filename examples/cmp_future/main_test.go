package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden output instead of comparing:
//
//	go test ./examples/cmp_future -update
var update = flag.Bool("update", false, "rewrite testdata/output.txt")

// TestOutputGolden pins every number the example prints, byte for byte:
// EXPERIMENTS.md quotes them from testdata/output.txt.
func TestOutputGolden(t *testing.T) {
	var got bytes.Buffer
	run(&got)
	path := filepath.Join("testdata", "output.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output drifted from %s.\nIf the change is intentional, regenerate with -update.\ngot:\n%s\nwant:\n%s",
			path, got.Bytes(), want)
	}
}
