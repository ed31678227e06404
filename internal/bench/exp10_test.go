package bench_test

// EXP10 acceptance: the gapping ablation's claim, that gapping tames LR's
// block misses (Lemma 4.15), holds on the quick rows: at every n each
// "gapped" row has fewer coherence misses than its "nogap" pair, counted
// both as BlockMisses and as the blockMisses column the experiment's table
// prints (BlockMisses + UpgradeMisses).

import (
	"testing"

	"repro/internal/harness"
)

func TestEXP10GappingCutsBlockMisses(t *testing.T) {
	type key struct {
		n      int64
		repeat int
	}
	rows := serialRows(t, "EXP10", true)
	nogap := map[key]harness.Row{}
	for _, r := range rows {
		if r.Note == "nogap" {
			nogap[key{r.N, r.Repeat}] = r
		}
	}
	pairs := 0
	for _, g := range rows {
		if g.Note != "gapped" {
			continue
		}
		ng, ok := nogap[key{g.N, g.Repeat}]
		if !ok {
			t.Errorf("n=%d: gapped row has no nogap pair", g.N)
			continue
		}
		pairs++
		gs, ngs := g.BlockMisses+g.UpgradeMisses, ng.BlockMisses+ng.UpgradeMisses
		t.Logf("n=%d p=%d: BlockMisses (+UpgradeMisses) gapped %d (%d), nogap %d (%d)", g.N, g.P, g.BlockMisses, gs, ng.BlockMisses, ngs)
		if g.BlockMisses >= ng.BlockMisses || gs >= ngs {
			t.Errorf("n=%d p=%d: gapped BlockMisses %d (+UpgradeMisses %d), want fewer than nogap's %d (%d)",
				g.N, g.P, g.BlockMisses, gs, ng.BlockMisses, ngs)
		}
	}
	if pairs == 0 || pairs != len(nogap) {
		t.Fatalf("%d gapped/nogap pairs of %d nogap rows; want every nogap row paired, at least one", pairs, len(nogap))
	}
}
