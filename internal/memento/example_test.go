package memento_test

import (
	"fmt"

	"edgeejb/internal/memento"
)

// Example shows the value layer: a memento snapshot of an entity and a
// custom-finder query over its fields.
func Example() {
	holding := memento.Memento{
		Key:     memento.Key{Table: "holding", ID: "h-42"},
		Version: 3,
		Fields: memento.Fields{
			"accountID": memento.String("uid-7"),
			"quantity":  memento.Float(25),
		},
	}

	finder := memento.Query{
		Table: "holding",
		Where: []memento.Predicate{
			memento.Where("accountID", memento.String("uid-7")),
			memento.Where("quantity", memento.Float(25)),
		},
	}
	fmt.Println(finder)
	fmt.Println("matches:", finder.Matches(holding))
	// Output:
	// SELECT * FROM holding WHERE accountID = "uid-7" AND quantity = 25
	// matches: true
}

// ExampleCommitSet shows the payload an optimistic transaction ships to
// the validator: read proofs plus after-images.
func ExampleCommitSet() {
	cs := memento.CommitSet{
		Reads: []memento.ReadProof{
			{Key: memento.Key{Table: "quote", ID: "s-1"}, Version: 9},
		},
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "account", ID: "uid-7"},
			Version: 4, // version observed at read time
			Fields:  memento.Fields{"balance": memento.Float(990)},
		}},
	}
	fmt.Println("size:", cs.Size(), "mutations:", cs.Mutations())
	for _, m := range cs.Writes {
		fmt.Println("writes:", m.Key)
	}
	// Output:
	// size: 2 mutations: 1
	// writes: account/uid-7
}
