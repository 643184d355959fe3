package figs

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFigures runs every row at its small instance on one and two cores,
// one repetition, through Print as xkfig does. Print fails when any arm's
// result differs from its sequential arm's; each panel must then print a
// table headed by every one of its series, with a cell per series in every
// row. Counts and names only: nothing here reads a clock.
func TestFigures(t *testing.T) {
	cores := []int{1, 2}
	for _, f := range Figures {
		t.Run(f.Name, func(t *testing.T) {
			var out bytes.Buffer
			if err := f.Print(&out, cores, 1, "small"); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(out.String(), "\n")
			at := 0
			for _, pn := range f.build(0) {
				xs, head := cores, []string{"cores"}
				if pn.sizes != nil {
					xs, head = pn.sizes, []string{"size"}
				}
				for _, c := range pn.cols {
					head = append(head, c.name)
				}
				for at < len(lines) && !slices.Equal(strings.Fields(lines[at]), head) {
					at++
				}
				if at+2+len(xs) > len(lines) {
					t.Fatalf("no table headed %q in:\n%s", head, &out)
				}
				for i, x := range xs {
					if row := strings.Fields(lines[at+2+i]); len(row) != len(head) || row[0] != strconv.Itoa(x) {
						t.Fatalf("row %d under %q is %q, want %d cells from %d:\n%s", i, head, row, len(head), x, &out)
					}
				}
				at += 2 + len(xs)
			}
		})
	}
}

func TestParseCores(t *testing.T) {
	if cs, err := ParseCores(" 1, 2 ,8 "); err != nil || !slices.Equal(cs, []int{1, 2, 8}) {
		t.Fatalf("ParseCores: %v %v", cs, err)
	}
	for _, bad := range []string{"1,x", "0"} {
		if _, err := ParseCores(bad); err == nil {
			t.Fatalf("ParseCores(%q) accepted", bad)
		}
	}
	if cs, err := ParseCores(""); err != nil || cs[0] != 1 {
		t.Fatalf("ParseCores(\"\"): %v %v", cs, err)
	}
}
