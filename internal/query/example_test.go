package query_test

import (
	"fmt"

	"pdcquery/internal/object"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
)

// Example parses the paper's own query notation and shows the DNF the
// evaluator plans against.
func Example() {
	names := map[string]object.ID{"Energy": 1, "x": 2}
	parsed, err := qlang.Parse("select ids where 2.1 < Energy < 2.2 and 100 < x < 200")
	if err != nil {
		panic(err)
	}
	low, err := parsed.Lower(func(s string) (object.ID, bool) {
		id, ok := names[s]
		return id, ok
	})
	if err != nil {
		panic(err)
	}
	conjuncts, _ := query.Normalize(low.Query.Root)
	for _, c := range conjuncts {
		for _, id := range c.ObjectsSorted() {
			fmt.Printf("obj%d in %s\n", id, c[id])
		}
	}
	// Output:
	// obj1 in (2.1, 2.2)
	// obj2 in (100, 200)
}
