package sortutil

import (
	"math"
	"slices"
	"testing"
)

// branchyMerge2 is the loop RawMerge2 replaced, kept as its reference: the
// textbook stable merge with a data-dependent branch per element.
func branchyMerge2(a, b, out []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// mergeFills are the run shapes the merge must handle; each returns sorted
// runs of the asked lengths.  Stability is invisible on bare int64 keys, so
// the fills aim at the cursor logic instead: which run drains first, how
// long the equal stretches are, and the extreme key values.
var mergeFills = map[string]func(na, nb int, seed uint64) (a, b []int64){
	"random": func(na, nb int, seed uint64) ([]int64, []int64) {
		return sortedLCG(na, seed, math.MaxInt64), sortedLCG(nb, seed+1, math.MaxInt64)
	},
	"allequal": func(na, nb int, _ uint64) ([]int64, []int64) {
		return slices.Repeat([]int64{5}, na), slices.Repeat([]int64{5}, nb)
	},
	"aBelowB": func(na, nb int, seed uint64) ([]int64, []int64) {
		a, b := sortedLCG(na, seed, 1000), sortedLCG(nb, seed+1, 1000)
		for i := range b {
			b[i] += 1000
		}
		return a, b
	},
	"bBelowA": func(na, nb int, seed uint64) ([]int64, []int64) {
		a, b := sortedLCG(na, seed, 1000), sortedLCG(nb, seed+1, 1000)
		for i := range a {
			a[i] += 1000
		}
		return a, b
	},
	"dupheavy": func(na, nb int, seed uint64) ([]int64, []int64) {
		return sortedLCG(na, seed, 3), sortedLCG(nb, seed+1, 3)
	},
	"extremes": func(na, nb int, seed uint64) ([]int64, []int64) {
		ext := []int64{math.MinInt64, math.MinInt64, -1, 0, math.MaxInt64, math.MaxInt64}
		pick := func(n int, s uint64) []int64 {
			r := make([]int64, n)
			for i := range r {
				s = s*6364136223846793005 + 1442695040888963407
				r[i] = ext[(s>>33)%uint64(len(ext))]
			}
			slices.Sort(r)
			return r
		}
		return pick(na, seed), pick(nb, seed+1)
	},
}

// sortedLCG returns n sorted pseudo-random keys in [0, mod).
func sortedLCG(n int, seed uint64, mod int64) []int64 {
	r := make([]int64, n)
	s := seed*2654435761 + 1
	for i := range r {
		s = s*6364136223846793005 + 1442695040888963407
		r[i] = int64(s>>1) % mod
	}
	slices.Sort(r)
	return r
}

// TestRawMerge2MatchesReference holds the branch-free merge to the branchy
// loop word for word on every length pair 0…65 of every fill, and checks it
// leaves its inputs alone.
func TestRawMerge2MatchesReference(t *testing.T) {
	for name, fill := range mergeFills {
		for na := 0; na <= 65; na++ {
			for nb := 0; nb <= 65; nb++ {
				a, b := fill(na, nb, uint64(na*66+nb))
				a0, b0 := slices.Clone(a), slices.Clone(b)
				got, want := make([]int64, na+nb), make([]int64, na+nb)
				RawMerge2(a, b, got)
				branchyMerge2(a, b, want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s |a|=%d |b|=%d: RawMerge2 %v, want %v", name, na, nb, got, want)
				}
				if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
					t.Fatalf("%s |a|=%d |b|=%d: RawMerge2 wrote to an input", name, na, nb)
				}
			}
		}
	}
}

// TestRawMerge2TiesFromA makes the tie rule visible: keys compare by their
// high bits only when the runs are built, the low bit tags the run, and a
// merge that took an equal key from b first would emit a tagged-1 word
// before a tagged-0 word of the same key — which, on the full words, is
// simply not sorted.  (a's words are even, b's odd, so word order IS the
// stable order.)
func TestRawMerge2TiesFromA(t *testing.T) {
	a, b := sortedLCG(300, 1, 4), sortedLCG(300, 2, 4)
	for i := range a {
		a[i] = a[i] << 1
	}
	for i := range b {
		b[i] = b[i]<<1 | 1
	}
	out := make([]int64, 600)
	RawMerge2(a, b, out)
	if !slices.IsSorted(out) {
		t.Fatal("equal keys did not come out a-first")
	}
}

// FuzzRawMerge2 decodes two sorted runs from the fuzz bytes — byte 0 the
// length of a (the rest is b), byte 1 the value modulus, one key per byte
// after — and holds RawMerge2 to the branchy reference.
func FuzzRawMerge2(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 1, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{2, 0, 1, 200, 3, 4, 5})
	f.Add([]byte{200, 7, 5, 4, 3, 2, 1, 0, 255, 254, 253})
	f.Add([]byte{1, 2, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mod := int64(data[1]) + 1
		keys := make([]int64, len(data)-2)
		for i, x := range data[2:] {
			keys[i] = (int64(x) - 128) % mod
		}
		na := min(int(data[0]), len(keys))
		a, b := keys[:na], keys[na:]
		slices.Sort(a)
		slices.Sort(b)
		got, want := make([]int64, len(keys)), make([]int64, len(keys))
		RawMerge2(a, b, got)
		branchyMerge2(a, b, want)
		if !slices.Equal(got, want) {
			t.Fatalf("a=%v b=%v: RawMerge2 %v, want %v", a, b, got, want)
		}
	})
}

// BenchmarkRawMerge2 times one merge of two 2048-key runs — the shape the
// sorts' serial merge leaves see — on random keys (a coin-flip comparison
// per element) and on disjoint ranges (a fully predictable one), against
// the branchy reference.  It rotates through benchSets different inputs: a
// loop over one input lets the branch predictor learn all 4096 outcomes
// and reads the branchy loop at a fifth of its cost on fresh data.
func BenchmarkRawMerge2(b *testing.B) {
	const n, benchSets = 2048, 64
	impls := []struct {
		name string
		f    func(a, b, out []int64)
	}{{"branchfree", RawMerge2}, {"branchy", branchyMerge2}}
	for _, sh := range []struct{ name, fill string }{{"random", "random"}, {"disjoint", "aBelowB"}} {
		var xs, ys [benchSets][]int64
		for i := range xs {
			xs[i], ys[i] = mergeFills[sh.fill](n, n, uint64(2*i))
		}
		out := make([]int64, 2*n)
		for _, im := range impls {
			b.Run(sh.name+"/"+im.name, func(b *testing.B) {
				b.SetBytes(2 * n * 8)
				for i := 0; i < b.N; i++ {
					im.f(xs[i%benchSets], ys[i%benchSets], out)
				}
			})
		}
	}
}

// BenchmarkRadixLeaf times the real leaf sort on 2048 keys: 30-bit keys
// (what the registry's generators produce; four discriminating bytes) and
// full-range keys (all eight).
func BenchmarkRadixLeaf(b *testing.B) {
	const n = 2048
	for _, tc := range []struct {
		name string
		mod  int64
	}{{"30bit", 1 << 30}, {"fullrange", 0}} {
		in := make([]int64, n)
		s := uint64(1)
		for i := range in {
			s = s*6364136223846793005 + 1442695040888963407
			in[i] = int64(s)
			if tc.mod > 0 {
				in[i] = int64(s>>33) % tc.mod
			}
		}
		work, tmp := make([]int64, n), make([]int64, n)
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				copy(work, in)
				radixSortI64(work, tmp)
			}
		})
	}
}
