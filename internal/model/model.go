// Package model is the analytical side of the reproduction: for each
// catalog algorithm it evaluates the paper's predicted cost quantities as
// closed-form functions of the problem size n and the machine parameters
// (p cores, cache size M, block size B):
//
//   - SeqQ — the sequential cache complexity Q(n; M, B) (Table 1, the
//     misses a serial execution is charged);
//   - StealExcess — the steal-bounded extra cold/capacity misses under
//     work stealing (Lemma 4.4 for BP computations, Lemma 4.1 for Type-2
//     HBP computations);
//   - BlockDelay — the extra block transfers of Definition 2.2 that
//     cache.Directory.Transfers measures, i.e. the steal excess plus the
//     false-sharing term of the block-miss lemmas (Lemmas 4.8/4.9/4.2).
//
// EXP02–EXP04 (internal/bench) check their rows against these predictions
// directly: StealExcess for the cache-miss excess of Lemmas 4.4 and 4.1,
// FalseSharing for the block misses of Lemmas 4.8/4.9/4.2.
//
// The formulas predict *growth*, not constants: experiment EXP14
// (internal/bench) fits the constant of each (algorithm, quantity,
// scheduler, p, B) group on the smallest measured size and then asserts
// that measured/(c·predicted) stays within the model's declared Envelope
// at every larger size.  Fit and Check implement that protocol.
package model

import "math"

// Params is the point a prediction is evaluated at.
type Params struct {
	N int64 // problem size (the algorithm's natural size parameter)
	P int   // cores
	M int   // private cache size, words
	B int   // block size, words
}

// Quantity names one predicted cost component; the values double as the
// Note tags of EXP14 rows.
type Quantity string

const (
	// SeqQ is the sequential cache complexity Q(n; M, B).
	SeqQ Quantity = "seqQ"
	// StealExcess is the extra cold/capacity misses under work stealing.
	StealExcess Quantity = "excess"
	// BlockDelay is the extra directory transfers (Definition 2.2):
	// steal excess plus the false-sharing block-miss term.
	BlockDelay Quantity = "transfers"
)

// Quantities lists every checked quantity in report order.
func Quantities() []Quantity { return []Quantity{SeqQ, StealExcess, BlockDelay} }

// Model holds the closed-form predictors of one catalog algorithm.  All
// predictors return strictly positive values for valid Params.
type Model struct {
	Name string
	// seqQ predicts Q(n; M, B) for a serial execution.
	seqQ func(p Params) float64
	// stealExcess predicts the extra cold/capacity misses at p > 1.
	stealExcess func(p Params) float64
	// fsDelay predicts the false-sharing extra transfers at p > 1.
	fsDelay func(p Params) float64
	// Envelope is the declared multiplicative tolerance per quantity:
	// after fitting on the smallest size, measured/(c·predicted) must stay
	// within [1/e, e] at every larger size.
	Envelope map[Quantity]float64
}

// Predict evaluates quantity q at params.  BlockDelay is the steal excess
// plus the false-sharing term, since every extra miss moves a block.
func (m Model) Predict(q Quantity, p Params) float64 {
	switch q {
	case SeqQ:
		return m.seqQ(p)
	case StealExcess:
		return m.stealExcess(p)
	case BlockDelay:
		return m.stealExcess(p) + m.fsDelay(p)
	}
	return math.NaN()
}

// FalseSharing evaluates the false-sharing term of the block-miss lemmas
// (Lemmas 4.8/4.9/4.2) at params: the part of BlockDelay beyond the steal
// excess.
func (m Model) FalseSharing(p Params) float64 { return m.fsDelay(p) }

// EnvelopeFor returns the declared tolerance for quantity q (defaulting to
// a conservative 8 if the model does not declare one).
func (m Model) EnvelopeFor(q Quantity) float64 {
	if e, ok := m.Envelope[q]; ok {
		return e
	}
	return 8
}

// Fit returns the constant c that matches the prediction to a measurement
// at the fit point: c·predicted = measured.  Measurements are floored at 1
// so that zero-valued small-size excesses cannot produce a degenerate fit.
func Fit(measured, predicted float64) float64 {
	return Floor1(measured) / predicted
}

// TwoSided reports whether quantity q is checked on both sides of the
// envelope.  SeqQ is a tight Θ-form (a serial execution cannot beat its own
// cache complexity), so drifting below the fit is as suspicious as drifting
// above it.  StealExcess and BlockDelay come from O(·) upper-bound lemmas:
// measuring *less* than the bound is the lemma holding comfortably, so only
// the upper side fails.
func TwoSided(q Quantity) bool { return q == SeqQ }

// Check evaluates one envelope check: ratio = measured/(c·predicted), ok
// per CheckRatio.
func Check(q Quantity, measured, predicted, c, envelope float64) (ratio float64, ok bool) {
	ratio = Floor1(measured) / (c * predicted)
	return ratio, CheckRatio(q, ratio, envelope)
}

// CheckRatio is the single envelope predicate: ratio ≤ envelope always,
// and additionally ratio ≥ 1/envelope for two-sided quantities (TwoSided).
// Every consumer of an EXP14 row (finish pass, renderer, acceptance test,
// run_all grep) must judge through this function so the verdict cannot
// diverge between surfaces.
func CheckRatio(q Quantity, ratio, envelope float64) bool {
	return ratio <= envelope && (!TwoSided(q) || ratio >= 1/envelope)
}

// Floor1 floors a measured count at 1, keeping fits and ratios finite when
// a small configuration measures zero (e.g. no extra misses at all).
func Floor1(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

func lg(x float64) float64 { return math.Log2(x) }

// strassenLevels is s*(n², M): the number of m → m/4 size reductions from
// an n² input until it fits in a cache of M words (at least 1).
func strassenLevels(p Params) float64 {
	s := 1.0
	for m := float64(p.N) * float64(p.N); m > float64(p.M); m /= 4 {
		s++
	}
	return s
}

// models returns every analytical model in catalog order.  Envelope values
// are declared per quantity; the growth forms follow the paper's lemmas:
//
//	BP scans and matrix maps   excess = p·M/B (Lemma 4.4),
//	                           fs = p·B·lg B (Lemma 4.8)
//	Direct BI-RM (L(r)=√r)     fs = p·B·n (ungapped down-pass, §3.2)
//	Strassen                   excess = p·(M/B)·s*(n²,M) (Lemma 4.1 i),
//	                           fs = p·B·s*(n²,M)
//	Depth-n-MM                 excess = p·n·M/B (Lemma 4.1 iii), fs = p·B·n
//	FFT                        excess = p·(M/B)·lg n/lg M (Lemma 4.1 ii),
//	                           fs = p·B·lg n·lglg B (Lemma 4.2)
func models() []Model {
	mOverB := func(p Params) float64 { return float64(p.M) / float64(p.B) }
	pf := func(p Params) float64 { return float64(p.P) }
	nf := func(p Params) float64 { return float64(p.N) }

	// Shared forms.
	linearQ := func(p Params) float64 { return nf(p) / float64(p.B) }
	squareQ := func(p Params) float64 { return nf(p) * nf(p) / float64(p.B) }
	bpExcess := func(p Params) float64 { return pf(p) * mOverB(p) }
	bpFS := func(p Params) float64 { return pf(p) * float64(p.B) * lg(float64(p.B)) }

	env := func(q, e, t float64) map[Quantity]float64 {
		return map[Quantity]float64{SeqQ: q, StealExcess: e, BlockDelay: t}
	}

	return []Model{
		{
			Name: "Scan(M-Sum)", seqQ: linearQ, stealExcess: bpExcess, fsDelay: bpFS,
			Envelope: env(2, 12, 8),
		},
		{
			Name: "Scan(PS)", seqQ: linearQ, stealExcess: bpExcess, fsDelay: bpFS,
			Envelope: env(2, 12, 8),
		},
		{
			Name: "MT (BI)", seqQ: squareQ, stealExcess: bpExcess, fsDelay: bpFS,
			Envelope: env(2, 12, 8),
		},
		{
			Name: "RM to BI", seqQ: squareQ, stealExcess: bpExcess, fsDelay: bpFS,
			Envelope: env(2, 12, 8),
		},
		{
			Name: "Direct BI-RM", seqQ: squareQ, stealExcess: bpExcess,
			fsDelay:  func(p Params) float64 { return pf(p) * float64(p.B) * nf(p) },
			Envelope: env(2, 12, 8),
		},
		{
			Name: "BI-RM (gap RM)", seqQ: squareQ, stealExcess: bpExcess, fsDelay: bpFS,
			Envelope: env(2, 12, 8),
		},
		{
			Name: "Strassen (BI)",
			seqQ: func(p Params) float64 {
				lambda := math.Log2(7)
				return math.Pow(nf(p), lambda) /
					(float64(p.B) * math.Pow(float64(p.M), lambda/2-1))
			},
			stealExcess: func(p Params) float64 { return pf(p) * mOverB(p) * strassenLevels(p) },
			fsDelay:     func(p Params) float64 { return pf(p) * float64(p.B) * strassenLevels(p) },
			Envelope:    env(3, 12, 8),
		},
		{
			Name: "Depth-n-MM",
			seqQ: func(p Params) float64 {
				return nf(p)*nf(p)*nf(p)/(float64(p.B)*math.Sqrt(float64(p.M))) +
					nf(p)*nf(p)/float64(p.B)
			},
			stealExcess: func(p Params) float64 { return pf(p) * nf(p) * mOverB(p) },
			fsDelay:     func(p Params) float64 { return pf(p) * float64(p.B) * nf(p) },
			Envelope:    env(3, 12, 8),
		},
		{
			// spms is the fj-unified SPMS sort (internal/algos/spms) with
			// the full k-way sample-partition merge: each level samples
			// its √n runs, partitions every run against the sorted sample
			// with dual binary searches, and merges the buckets in
			// parallel, for the paper's O(lg n·lglg n) worst-case depth
			// (EXP15 gates the measured form over adversarial inputs).  As
			// a Type-2 HBP computation it keeps the Table-1 sorting
			// bounds: the cache complexity of the FFT/sort family, the
			// Lemma 4.1(ii) steal excess, and the Lemma 4.9 sorting
			// false-sharing term (the same O(pB·lg n·lglg B) shape Lemma
			// 4.2 gives the FFT).
			Name: "spms",
			seqQ: func(p Params) float64 {
				return nf(p) / float64(p.B) * lg(nf(p)) / lg(float64(p.M))
			},
			stealExcess: func(p Params) float64 {
				return pf(p) * mOverB(p) * lg(nf(p)) / lg(float64(p.M))
			},
			fsDelay: func(p Params) float64 {
				return pf(p) * float64(p.B) * lg(nf(p)) * lg(lg(float64(p.B))+2)
			},
			Envelope: env(2, 12, 8),
		},
		{
			Name: "FFT",
			seqQ: func(p Params) float64 {
				return nf(p) / float64(p.B) * (1 + lg(nf(p))/lg(float64(p.M)))
			},
			stealExcess: func(p Params) float64 {
				return pf(p) * mOverB(p) * lg(nf(p)) / lg(float64(p.M))
			},
			fsDelay: func(p Params) float64 {
				return pf(p) * float64(p.B) * lg(nf(p)) * lg(lg(float64(p.B))+2)
			},
			Envelope: env(2, 12, 8),
		},
	}
}

// For returns the model for the named catalog algorithm.
func For(name string) (Model, bool) {
	for _, m := range models() {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// Names lists every modelled algorithm in catalog order.
func Names() []string {
	ms := models()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}
