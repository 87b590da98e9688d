// Dynamic databases: the extended ORAM protocol (§V) keeps discovered
// partitions fresh under insertions and deletions at polylogarithmic cost
// per operation — the paper's first non-trivial dynamic FD protocol.
//
// The scenario: an employee table with the intro's motivating dependency
// Position → Department, broken at first by one contractor record. Deleting
// that record creates the FD, and a second Discover finds it, building only
// what the first left unbuilt. Then a re-org inserts a record that breaks the
// FD again; it is re-checked at once from the maintained partitions (no O(n)
// rescan); deleting the record restores it.
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"log"

	"github.com/oblivfd/oblivfd/securefd"
)

func main() {
	schema, err := securefd.NewSchema("Employee", "Position", "Department")
	if err != nil {
		log.Fatal(err)
	}
	rel, err := securefd.FromRows(schema, []securefd.Row{
		{"E01", "Engineer", "R&D"},
		{"E02", "Engineer", "R&D"},
		{"E03", "Scientist", "R&D"},
		{"E04", "Account-Exec", "Sales"},
		{"E05", "Account-Exec", "Sales"},
		{"E06", "Recruiter", "People"},
		{"C01", "Engineer", "Platform"}, // a contractor, record 6
	})
	if err != nil {
		log.Fatal(err)
	}

	db, err := securefd.Outsource(securefd.NewServer(), rel, securefd.Options{
		Protocol:       securefd.ProtocolDynamicORAM,
		InsertHeadroom: 8, // capacity for future insertions
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	position, department := schema.MustSet("Position"), schema.MustSet("Department")
	posDept := position.Union(department)
	discover := func(when string) {
		report, err := db.Discover()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("minimal FDs %s:\n", when)
		for _, fd := range report.Minimal {
			fmt.Println(" ", fd.Format(schema))
		}
	}
	discover("with the contractor")

	// The contractor leaves. A deletion can only create FDs, and a second
	// Discover finds them, building only what the first left unbuilt: the
	// partitions it kept are up to date. A deletion is 3 rounds, whatever
	// the data and however many partitions are maintained.
	if err := db.Delete(6); err != nil {
		log.Fatal(err)
	}
	discover("after deleting record 6, the contractor (Position -> Department is new)")

	holds := func() bool {
		a, _ := db.Cardinality(position)
		b, _ := db.Cardinality(posDept)
		return a == b
	}

	// A re-org: an Engineer moves to the new Platform department. The
	// insertion steps all of a lattice level's maintained partitions in the
	// same rounds: its row's round, 2 for the single attributes and 3 for
	// each level above them — not a rescan, and not rounds per partition.
	id, err := db.Insert(securefd.Row{"E07", "Engineer", "Platform"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted E07 (Engineer, Platform) as record %d\n", id)
	fmt.Printf("Position -> Department: %v  (broken by the new record)\n", holds())

	// The re-org is rolled back.
	if err := db.Delete(id); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted record %d\n", id)
	fmt.Printf("Position -> Department: %v  (restored)\n", holds())

	fmt.Printf("\nlive records: %d\n", db.NumRows())
}
