package stats

import (
	"math"
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{Title: "t", Columns: []string{"Base", "A", "B"}}
	t.Add("x", 10, 5, 20)
	t.Add("y", 4, 2, 8)
	return t
}

func TestColAndValue(t *testing.T) {
	tb := sample()
	if tb.Col("A") != 1 || tb.Col("nope") != -1 {
		t.Error("Col")
	}
	v, ok := tb.Value("y", "B")
	if !ok || v != 8 {
		t.Errorf("Value = %v, %v", v, ok)
	}
	if _, ok := tb.Value("z", "B"); ok {
		t.Error("missing row found")
	}
	if _, ok := tb.Value("y", "C"); ok {
		t.Error("missing col found")
	}
}

func TestColumnMeanAndMeanRow(t *testing.T) {
	tb := sample()
	m, ok := tb.ColumnMean("A")
	if !ok || m != 3.5 {
		t.Errorf("mean = %v", m)
	}
	if _, ok := tb.ColumnMean("nope"); ok {
		t.Error("mean of missing column")
	}
	wm := tb.WithMeanRow()
	if len(wm.Rows) != 3 || wm.Rows[2].Label != "average" {
		t.Fatalf("rows = %v", wm.Rows)
	}
	if wm.Rows[2].Values[0] != 7 {
		t.Errorf("avg base = %v", wm.Rows[2].Values[0])
	}
	// Original untouched.
	if len(tb.Rows) != 2 {
		t.Error("WithMeanRow mutated input")
	}
}

func TestRender(t *testing.T) {
	tb := sample()
	out := tb.String()
	for _, want := range []string{"t\n", "Base", "A", "B", "x", "y", "10.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Large integers render without decimals.
	tb2 := &Table{Columns: []string{"E"}}
	tb2.Add("big", 20836)
	if !strings.Contains(tb2.String(), "20836") || strings.Contains(tb2.String(), "20836.000") {
		t.Errorf("big int render:\n%s", tb2.String())
	}
	// Inf/NaN don't panic.
	tb3 := &Table{Columns: []string{"E"}}
	tb3.Add("inf", math.Inf(1))
	_ = tb3.String()
}

func TestRenderCSV(t *testing.T) {
	tb := sample()
	var buf strings.Builder
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "label,Base,A,B\nx,10,5,20\ny,4,2,8\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
