//go:build !race

package matmul

// raceEnabled is off outside race builds; see race.go.
const raceEnabled = false
