//go:build race

package matmul

// raceEnabled keeps MulLeaf on the Go kernel under the race detector, which
// does not see the memory accesses of the assembly tile kernel.
const raceEnabled = true
