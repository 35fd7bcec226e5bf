// Package testutil holds small dependency-free helpers shared across
// the repository's test suites. It must not import any repro package:
// white-box tests inside internal/serve use these helpers too, and an
// import back into serve (or anything that imports serve) would cycle.
package testutil

import "fmt"

// PlaceFunc maps a session id onto a shard index in [0, shards) — the
// signature of serve.HashPlacer.Place, accepted structurally so callers
// can pass it (or a bare hash) without this package importing serve.
type PlaceFunc func(id string, shards int) int

// IDsOnShard returns n distinct session ids that place onto shard idx
// under place — the deterministic way to stage a chosen per-shard
// load. Ids are generated as "c-<idx>-<i>" and filtered, so the same
// (place, shards, idx, n) always yields the same ids.
func IDsOnShard(place PlaceFunc, shards, idx, n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		id := fmt.Sprintf("c-%d-%d", idx, i)
		if place(id, shards) == idx {
			out = append(out, id)
		}
	}
	return out
}

// Spread counts how many of the ids place onto each shard under
// place, returning one count per shard — the balance histogram tests
// assert fairness over.
func Spread(place PlaceFunc, ids []string, shards int) []int {
	counts := make([]int, shards)
	for _, id := range ids {
		counts[place(id, shards)]++
	}
	return counts
}
