package core

import (
	"errors"
	"reflect"
	"testing"
)

// forkTree is a complete fork tree of the given depth whose leaves write out.
func forkTree(out int64, depth int) *Node {
	if depth == 0 {
		return Leaf(1, func(c *Ctx) { c.W(out, 1) })
	}
	return &Node{Size: 1 << depth, Fork: func(c *Ctx) (*Node, *Node) {
		return forkTree(out, depth-1), forkTree(out, depth-1)
	}}
}

// recordOrRefuse records root built by build under the greedy scheduler on
// p cores, checks that the recording was refused for want, and that the run
// went on as a plain one.
func recordOrRefuse(t *testing.T, p int, build func(out int64) *Node, want error) {
	t.Helper()
	m := newTestMachine(p)
	plain := NewEngine(m, greedySched{}, Options{}).Run(build(m.Space.Alloc(2)))
	m = newTestMachine(p)
	root := build(m.Space.Alloc(2))
	res, tape, err := NewEngine(m, greedySched{}, Options{}).Record(root)
	if !errors.Is(err, want) || tape != nil {
		t.Fatalf("Record = (tape %v, %v), want no tape and %v", tape != nil, err, want)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("the refused recording changed the run:\n got %s\nwant %s", res, plain)
	}
}

// TestRecordRefusesOverBudget lowers the budget below what a small tree
// records.
func TestRecordRefusesOverBudget(t *testing.T) {
	defer func(b int64) { tapeBudget = b }(tapeBudget)
	tapeBudget = 256
	tree := func(out int64) *Node { return forkTree(out, 6) }
	recordOrRefuse(t, 2, tree, errOverBudget)
}

// TestRecordRefusesForeignStackWord reads a stack word of a task that is not
// an ancestor: it has no symbol a replay could resolve.
func TestRecordRefusesForeignStackWord(t *testing.T) {
	build := func(out int64) *Node {
		var local int64
		return &Node{Size: 2, Fork: func(c *Ctx) (*Node, *Node) {
			left := &Node{Size: 1, Locals: 1, Fork: func(c *Ctx) (*Node, *Node) {
				local = c.Local(0)
				return Leaf(1, func(c *Ctx) { c.W(local, 1) }), nil
			}}
			right := Leaf(1, func(c *Ctx) { c.W(out, c.R(local)) })
			return left, right
		}}
	}
	recordOrRefuse(t, 1, build, errStackWord)
}

// TestRecordOfReplay records a replay: as the whole computation it is
// recorded as the replayed tape itself; as a part of one it is refused.
func TestRecordOfReplay(t *testing.T) {
	tree := func(out int64) *Node { return forkTree(out, 3) }
	m := newTestMachine(2)
	root := tree(m.Space.Alloc(2))
	_, tape, err := NewEngine(m, greedySched{}, Options{}).Record(root)
	if err != nil {
		t.Fatal(err)
	}
	m = newTestMachine(2)
	m.Space.Alloc(tape.Inputs())
	if _, got, err := NewEngine(m, greedySched{}, Options{}).Record(tape.Root()); got != tape || err != nil {
		t.Errorf("Record of a replay = (%p, %v), want the replayed tape %p", got, err, tape)
	}
	run := func(record bool) (Result, *Tape, error) {
		m := newTestMachine(2)
		out := m.Space.Alloc(2)
		root := &Node{Size: 2, Fork: func(c *Ctx) (*Node, *Node) {
			return tape.Root(), Leaf(1, func(c *Ctx) { c.W(out, 1) })
		}}
		eng := NewEngine(m, greedySched{}, Options{})
		if !record {
			return eng.Run(root), nil, nil
		}
		return eng.Record(root)
	}
	plain, _, _ := run(false)
	res, got, err := run(true)
	if got != nil || !errors.Is(err, errNestedReplay) {
		t.Errorf("Record of a nested replay = (tape %v, %v), want no tape and %v", got != nil, err, errNestedReplay)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("the refused recording changed the run:\n got %s\nwant %s", res, plain)
	}
}
