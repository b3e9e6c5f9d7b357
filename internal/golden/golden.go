// Package golden compares what a test prints with a file under testdata/,
// so that a change of output is a reviewed diff of that file.
package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing with them")

// Check compares got with the file at path, naming the file and the
// first line that differs; under -update it writes got there instead.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = os.WriteFile(path, []byte(got), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -update writes it)", err)
	}
	if d := Diff(string(want), got); d != "" {
		t.Errorf("%s differs (go test -update rewrites it) at %s", path, d)
	}
}

// Diff shows the first line where got departs from want ("" if none).
func Diff(want, got string) string {
	if want == got {
		return ""
	}
	w := append(strings.Split(want, "\n"), "(end of output)")
	g := append(strings.Split(got, "\n"), "(end of output)")
	i := 0
	for i < min(len(w), len(g))-1 && w[i] == g[i] {
		i++
	}
	return fmt.Sprintf("line %d:\n- %s\n+ %s\n", i+1, w[i], g[i])
}

// Stdout returns what fn writes to os.Stdout.
func Stdout(t testing.TB, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
