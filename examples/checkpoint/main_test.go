package main

import (
	"testing"

	"samrdlb/internal/golden"
)

// TestStdout: the example prints what testdata/stdout.txt holds.
func TestStdout(t *testing.T) {
	golden.Check(t, "testdata/stdout.txt", golden.Stdout(t, main))
}
