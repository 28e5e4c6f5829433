package main

import (
	"compress/gzip"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// A solve that fails still finishes the CPU profile: -timeout 1ns expires
// before the solve starts, and the profile must be a complete gzip stream,
// not the empty file a stop skipped by an early exit leaves behind.
func TestCPUProfileWrittenOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	err := run([]string{"-M", "24", "-N", "60", "-seed", "7", "-timeout", "1ns", "-cpuprofile", path})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run = %v, want a deadline error", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil || fi.Size() == 0 {
		t.Fatalf("profile is empty (stat err %v)", err)
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Fatalf("profile gzip stream is truncated: %v", err)
	}
}
