// Package metrics provides the reporting layer: aligned ASCII tables,
// simple terminal plots and CSV export used by cmd/socrepro and the
// examples to present the reproduced tables and figures.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV emits header plus rows as comma-separated values.
func WriteCSV(w io.Writer, header []string, rows [][]string) error {
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Series is one named line of an ASCII plot.
type Series struct {
	Name string
	X, Y []float64
}

// PlotASCII renders series as a coarse ASCII chart: one glyph per series,
// linear axes, y autoscaled. It exists so the figure reproductions are
// inspectable straight from a terminal.
func PlotASCII(w io.Writer, title string, series []Series, width, height int) {
	if width < 10 {
		width = 60
	}
	if height < 4 {
		height = 16
	}
	var xmin, xmax, ymin, ymax float64
	first := true
	for _, s := range series {
		for i := range s.X {
			if first {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			xmin = minF(xmin, s.X[i])
			xmax = maxF(xmax, s.X[i])
			ymin = minF(ymin, s.Y[i])
			ymax = maxF(ymax, s.Y[i])
		}
	}
	if first {
		fmt.Fprintf(w, "%s: (no data)\n", title)
		return
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#'}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			cx := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			cy := int((s.Y[i] - ymin) / (ymax - ymin) * float64(height-1))
			row := height - 1 - cy
			grid[row][cx] = g
		}
	}
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "y: %.3g .. %.3g\n", ymin, ymax)
	for _, row := range grid {
		fmt.Fprintf(w, "|%s|\n", string(row))
	}
	fmt.Fprintf(w, "x: %.3g .. %.3g   ", xmin, xmax)
	for si, s := range series {
		fmt.Fprintf(w, "[%c %s] ", glyphs[si%len(glyphs)], s.Name)
	}
	fmt.Fprintln(w)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
