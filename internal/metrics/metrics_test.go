package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{Header: []string{"App", "Value"}}
	tbl.AddRow("Kmeans", 1.756)
	tbl.AddRow("FFT", 1)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Kmeans") || !strings.Contains(out, "1.756") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("table has %d lines", len(lines))
	}
	// Columns aligned: every line equally long or longer than header.
	if len(lines[1]) < len("App") {
		t.Fatal("separator too short")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestPlotASCII(t *testing.T) {
	var buf bytes.Buffer
	PlotASCII(&buf, "demo", []Series{
		{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
		{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
	}, 40, 10)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "[* up]") {
		t.Fatalf("plot output malformed:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("plot missing series glyphs")
	}
}

func TestPlotASCIIEmpty(t *testing.T) {
	var buf bytes.Buffer
	PlotASCII(&buf, "empty", nil, 40, 10)
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty plot should say so")
	}
}

func TestPlotASCIIConstantSeries(t *testing.T) {
	// Degenerate ranges must not divide by zero.
	var buf bytes.Buffer
	PlotASCII(&buf, "const", []Series{{Name: "c", X: []float64{1, 1}, Y: []float64{5, 5}}}, 20, 5)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}
