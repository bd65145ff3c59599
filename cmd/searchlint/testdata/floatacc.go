// Fixture for the maporder rule's float case: a float sum in map order also
// differs in its low bits run-to-run, because float addition is not
// associative.
package floatacc

func badSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `accumulation total \+= \(float addition is not associative\) in map iteration order`
	}
	return total
}

func badSpelledOut(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want `accumulation total = total \+ \(float addition is not associative\)`
	}
	return total
}

func badProduct(m map[int]float32) float32 {
	p := float32(1)
	for _, v := range m {
		p *= v // want `accumulation p \*= \(float`
	}
	return p
}

// goodSortedKeys is the canonical fix: iterate a sorted key slice so the
// sum folds in a deterministic order.
func goodSortedKeys(m map[int]float64, sortedKeys []int) float64 {
	var total float64
	for _, k := range sortedKeys {
		total += m[k]
	}
	return total
}

// goodPerIteration stays silent: the accumulator lives inside the loop
// body, so no cross-iteration float state exists.
func goodPerIteration(m map[int][]float64) int {
	n := 0
	for _, vs := range m {
		sum := 0.0
		for _, v := range vs {
			sum += v
		}
		if sum > 1 {
			n++ // order-independent count, no float state crosses iterations
		}
	}
	return n
}
