// Package det holds small determinism helpers: sorted views over maps so
// that iteration order — and therefore rendered tables, float sums, and
// anything else order-sensitive — is identical run-to-run. The searchlint
// maporder rule points here as the canonical fix, and exempts this package:
// its two key-collecting loops are the one sanctioned map range.
package det

import (
	"cmp"
	"slices"
)

// SortedKeys returns m's keys in ascending order. Ranging over the result
// replaces the nondeterministic `for k := range m` whenever order can leak
// into output or accumulation.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// SortedKeysFunc returns m's keys ordered by less, for key types without a
// natural order (or when a non-natural order is wanted).
func SortedKeysFunc[M ~map[K]V, K comparable, V any](m M, less func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, less)
	return keys
}
