package golden

import (
	"fmt"
	"os"
	"testing"
)

func TestDiffNamesTheFirstDifferingLine(t *testing.T) {
	for _, c := range []struct{ want, got, diff string }{
		{"a\nb\n", "a\nb\n", ""},
		{"a\nb\n", "a\nc\n", "line 2:\n- b\n+ c\n"},
		{"a\n", "a\nb\n", "line 2:\n- \n+ b\n"},
		{"a\nb", "a", "line 2:\n- b\n+ (end of output)\n"},
	} {
		if d := Diff(c.want, c.got); d != c.diff {
			t.Errorf("Diff(%q, %q) = %q, want %q", c.want, c.got, d, c.diff)
		}
	}
}

func TestStdoutCapturesAndRestores(t *testing.T) {
	saved := os.Stdout
	if got := Stdout(t, func() { fmt.Print("hello\n") }); got != "hello\n" {
		t.Errorf("Stdout = %q", got)
	}
	if os.Stdout != saved {
		t.Error("os.Stdout was not restored")
	}
}
