// Fixture for the imports rule's math/rand ban: every name of the package
// is a finding, seeded constructors included, because all randomness flows
// through the seeded stats.RNG.
package globalrand

import "math/rand"

func badIntn() int {
	return rand.Intn(10) // want `rand\.Intn bypasses the seeded stats\.RNG`
}

func badFloat() float64 {
	return rand.Float64() // want `rand\.Float64 bypasses the seeded stats\.RNG`
}

func badShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand\.Shuffle bypasses`
}

func badFuncValue() func(int) int {
	return rand.Intn // want `rand\.Intn bypasses`
}

func badSeeded(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // want `rand\.New bypasses` `rand\.NewSource bypasses`
	return r.Intn(10)
}
