package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesDatasets(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"rnd", "adult", "letter", "flight"} {
		out := filepath.Join(dir, name+".csv")
		if err := run(name, 20, 5, 1, out); err != nil {
			t.Errorf("run(%s): %v", name, err)
			continue
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Count(string(data), "\n")
		if lines != 21 { // header + 20 rows
			t.Errorf("%s: %d lines, want 21", name, lines)
		}
	}
}

func TestRunRNDColumns(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.csv")
	if err := run("rnd", 5, 7, 1, out); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	header := strings.SplitN(string(data), "\n", 2)[0]
	if got := len(strings.Split(header, ",")); got != 7 {
		t.Errorf("columns = %d, want 7", got)
	}
}

func TestRunUnknownDataset(t *testing.T) {
	if err := run("bogus", 10, 5, 1, filepath.Join(t.TempDir(), "x.csv")); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestRunRefusesBadShapes: a column count below one and a negative row count
// are errors, not a panic or a silent default.
func TestRunRefusesBadShapes(t *testing.T) {
	for _, c := range []struct{ rows, cols int }{{3, 0}, {3, -1}, {-4, 5}} {
		if err := run("rnd", c.rows, c.cols, 1, filepath.Join(t.TempDir(), "x.csv")); err == nil {
			t.Errorf("-rows %d -cols %d accepted", c.rows, c.cols)
		}
	}
}

// TestRunRNDColumnsAtDefaultRows: -cols holds without -rows, at RND's
// published 8192 rows.
func TestRunRNDColumnsAtDefaultRows(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.csv")
	if err := run("rnd", 0, 2, 1, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if got := len(strings.Split(lines[0], ",")); got != 2 {
		t.Errorf("columns = %d, want 2", got)
	}
	if got := len(lines) - 1; got != rndRows {
		t.Errorf("rows = %d, want %d", got, rndRows)
	}
}
