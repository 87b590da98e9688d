// Command datagen emits one of the evaluation datasets as CSV: the paper's
// synthetic RND workload or a shape-compatible Adult/Letter/Flight stand-in
// (Table I; see DESIGN.md §2 for the substitution rationale).
//
//	datagen -dataset rnd -rows 8192 -cols 10 -o rnd.csv
//	datagen -dataset flight -rows 100000 -o flight.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/oblivfd/oblivfd/securefd"
)

func main() {
	var (
		name = flag.String("dataset", "rnd", "rnd|adult|letter|flight")
		rows = flag.Int("rows", 0, "row count (0 = published size; rnd defaults to 8192)")
		cols = flag.Int("cols", 10, "column count (rnd only)")
		seed = flag.Int64("seed", 1, "generator seed")
		out  = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	if err := run(*name, *rows, *cols, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// rndRows is the RND dataset's published size, which -rows 0 selects.
const rndRows = 1 << 13

func run(name string, rows, cols int, seed int64, out string) error {
	switch {
	case cols < 1:
		return fmt.Errorf("-cols %d: a relation needs at least one column", cols)
	case rows < 0:
		return fmt.Errorf("-rows %d: a row count cannot be negative", rows)
	}
	var rel *securefd.Relation
	var err error
	if name == "rnd" {
		if rows == 0 {
			rows = rndRows
		}
		rel = securefd.GenerateRND(cols, rows, seed)
	} else {
		rel, err = securefd.GenerateDataset(name, rows, seed)
		if err != nil {
			return err
		}
	}
	if out == "" {
		return securefd.WriteCSV(os.Stdout, rel)
	}
	if err := securefd.WriteCSVFile(out, rel); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d rows × %d attributes\n", out, rel.NumRows(), rel.NumAttrs())
	return nil
}
