package registry

import (
	"encoding/binary"
	"testing"

	"repro/internal/fj"
	"repro/internal/rt"
)

// wordsFromBytes reassembles raw fuzzer bytes into wire words
// (little-endian, 8 bytes per word; trailing bytes dropped).
func wordsFromBytes(data []byte) []int64 {
	words := make([]int64, len(data)/8)
	for i := range words {
		words[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return words
}

// wordsToBytes is the seed-corpus inverse of wordsFromBytes.
func wordsToBytes(w []int64) []byte {
	data := make([]byte, 8*len(w))
	for i, x := range w {
		binary.LittleEndian.PutUint64(data[8*i:], uint64(x))
	}
	return data
}

// FuzzInvokeCodec drives every invocable kernel's payload handling with
// arbitrary bytes.  Malformed payloads must come back as Validate errors —
// never panics — and accepted payloads, run on the wire words in place,
// must yield an output Verify accepts wherever the kernel's semantics are
// exact (every kernel but the float-epsilon matmul and fft; transpose's
// verifier compares raw words).  matmul and fft still must run and verify
// panic-free on arbitrary payloads, which include NaN and Inf.
//
// The per-kernel seed corpus below is wired into the CI race gate: the
// registry race step runs `-run 'Test|FuzzInvokeCodec'`, which executes
// every f.Add entry as a unit test under -race.
func FuzzInvokeCodec(f *testing.F) {
	kernels := Invocables()
	for ki, k := range kernels {
		n := int64(8)
		if k.Name == "strassen" || k.Name == "matmul" {
			n = 4 // 2n² words — keep the seed payloads small
		}
		in, err := k.Gen(n, 42)
		if err != nil {
			f.Fatalf("%s: Gen(%d): %v", k.Name, n, err)
		}
		f.Add(uint8(ki), wordsToBytes(in))
	}
	// Malformed and degenerate shapes, mutated across every kernel index.
	f.Add(uint8(0), wordsToBytes([]int64{3, 1, 2}))     // odd word count
	f.Add(uint8(1), wordsToBytes([]int64{1 << 40, -7})) // out-of-range index
	f.Add(uint8(2), wordsToBytes([]int64{1, 0, -1}))    // listrank cycle
	f.Add(uint8(3), []byte{1, 2, 3})                    // sub-word tail
	f.Add(uint8(4), wordsToBytes(make([]int64, 2*9)))   // 3×3 matrix pair
	f.Add(uint8(5), []byte{})                           // empty payload

	pool := rt.NewPool(2, rt.Random)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, ki uint8, data []byte) {
		k := kernels[int(ki)%len(kernels)]
		words := wordsFromBytes(data)
		if len(words) > 1<<12 {
			words = words[:1<<12] // bound kernel work, not codec coverage
		}
		if err := k.Validate(words); err != nil {
			return // malformed → error, and it arrived without a panic
		}
		out := make([]int64, k.OutLen(words))
		fj.RunReal(pool, func(c *fj.Ctx) { k.Run(c, words, out) })
		exact := k.Name != "matmul" && k.Name != "fft"
		if ok := k.Verify(words, out); exact && !ok {
			t.Fatalf("%s: exact kernel failed verification on a valid payload", k.Name)
		}
	})
}
