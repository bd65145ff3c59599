// Fixture for the maporder rule: statements in a map range that append,
// write output, or accumulate into state declared outside the loop. Each
// finding sits on the offending statement.
package maporder

import (
	"fmt"
	"strings"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys in map iteration order`
	}
	return keys
}

func badPrint(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `output via fmt\.Printf`
	}
}

func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `write to b via WriteString`
	}
	return b.String()
}

func badIntAccum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v // want `accumulation total \+= in map iteration order; range over`
	}
	return total
}

func badStringAccum(m map[int]string) string {
	out := ""
	for _, v := range m {
		out = out + v // want `accumulation out = out \+`
	}
	return out
}

// badNested reports the inner map range's append once, from the inner loop.
func badNested(m map[string]map[string]int) []string {
	var keys []string
	for _, inner := range m {
		for k := range inner {
			keys = append(keys, k) // want `append to keys`
		}
	}
	return keys
}

// goodSortedKeys is the canonical fix: range over a sorted key slice (what
// det.SortedKeys returns).
func goodSortedKeys(m map[string]int, sortedKeys []string) []string {
	var out []string
	for _, k := range sortedKeys {
		out = append(out, fmt.Sprint(k, m[k]))
	}
	return out
}

// goodMapToMap stays silent: writing another map is content-deterministic
// whatever the iteration order.
func goodMapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// goodPerIteration stays silent: the accumulator is declared inside the
// loop body, so nothing order-sensitive escapes an iteration.
func goodPerIteration(m map[string][]int) int {
	last := 0
	for _, vs := range m {
		sum := 0
		for _, v := range vs {
			sum += v
		}
		if sum > last {
			last = sum // comparison, not accumulation
		}
	}
	return last
}
