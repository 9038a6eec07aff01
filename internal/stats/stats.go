// Package stats provides the result-table machinery the experiment
// drivers use: numeric tables with labelled rows and columns,
// aggregate helpers, and plain text rendering of the kind the paper's
// tables and bar charts report.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Row is one labelled table row.
type Row struct {
	Label  string
	Values []float64
}

// Table is a titled numeric table.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	// Precision is the number of decimals in rendering (default 3).
	Precision int
}

// Add appends a row.
func (t *Table) Add(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Col returns the index of the named column, or -1.
func (t *Table) Col(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Value returns the cell at (rowLabel, colName).
func (t *Table) Value(rowLabel, colName string) (float64, bool) {
	ci := t.Col(colName)
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && ci < len(r.Values) {
			return r.Values[ci], true
		}
	}
	return 0, false
}

// ColumnMean returns the arithmetic mean of one column.
func (t *Table) ColumnMean(colName string) (float64, bool) {
	ci := t.Col(colName)
	if ci < 0 || len(t.Rows) == 0 {
		return 0, false
	}
	var sum float64
	n := 0
	for _, r := range t.Rows {
		if ci < len(r.Values) {
			sum += r.Values[ci]
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// WithMeanRow returns a copy of the table with an appended "average"
// row of column means (the paper reports cross-benchmark averages).
func (t *Table) WithMeanRow() *Table {
	cp := &Table{Title: t.Title, Columns: t.Columns, Precision: t.Precision}
	cp.Rows = append(cp.Rows, t.Rows...)
	means := make([]float64, len(t.Columns))
	for i, c := range t.Columns {
		means[i], _ = t.ColumnMean(c)
	}
	cp.Add("average", means...)
	return cp
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) {
	prec := t.Precision
	if prec <= 0 {
		prec = 3
	}
	labW := len("label")
	for _, r := range t.Rows {
		if len(r.Label) > labW {
			labW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Columns {
		colW[i] = len(c)
	}
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r.Values))
		for i, v := range r.Values {
			s := formatCell(v, prec)
			cells[ri][i] = s
			if i < len(colW) && len(s) > colW[i] {
				colW[i] = len(s)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	fmt.Fprintf(w, "%-*s", labW, "")
	for i, c := range t.Columns {
		fmt.Fprintf(w, "  %*s", colW[i], c)
	}
	fmt.Fprintln(w)
	for ri, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", labW, r.Label)
		for i := range r.Values {
			width := 8
			if i < len(colW) {
				width = colW[i]
			}
			fmt.Fprintf(w, "  %*s", width, cells[ri][i])
		}
		fmt.Fprintln(w)
	}
}

func formatCell(v float64, prec int) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprint(v)
	}
	if v == math.Trunc(v) && math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.*f", prec, v)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// RenderCSV writes the table as CSV: a header row of "label" plus
// the column names, then one row per table row. Labels containing
// commas or quotes are quoted.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"label"}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	prec := t.Precision
	if prec <= 0 {
		prec = 6
	}
	for _, r := range t.Rows {
		rec := make([]string, 0, len(r.Values)+1)
		rec = append(rec, r.Label)
		for _, v := range r.Values {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
