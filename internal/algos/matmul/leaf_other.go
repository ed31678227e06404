//go:build !amd64

package matmul

// hasTile reports whether a tile kernel multiplies T's elements on this CPU:
// there is none off amd64.
func hasTile[T Num]() bool { return false }

// mulTile is never called: hasTile is false.
func mulTile[T Num](a, b, o []T, sa, sb, so, m int64, store bool) {
	panic("matmul: no tile kernel on this architecture")
}
