package relation

// Partition is the plaintext partition π_X of a relation under an attribute
// set X (§II-C), kept as its class count: the FD check |π_X| = |π_{X∪Y}|
// reads nothing else. It is the tests' correctness oracle; the secure
// protocols never materialize it in plaintext on the server.
type Partition struct {
	// Classes is the number of distinct equivalence classes, |π_X|.
	Classes int
}

// PartitionOf computes π_X for the relation by hashing projected values.
func PartitionOf(r *Relation, x AttrSet) Partition {
	classes := make(map[string]struct{}, r.NumRows())
	for i := 0; i < r.NumRows(); i++ {
		classes[r.ProjectKey(i, x)] = struct{}{}
	}
	return Partition{Classes: len(classes)}
}
