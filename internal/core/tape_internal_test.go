package core

import (
	"errors"
	"reflect"
	"testing"
)

// schedTree is a fork tree whose leaves branch on the core running them.
func schedTree(out int64, depth int, ask func(c *Ctx) bool) *Node {
	if depth == 0 {
		return Leaf(1, func(c *Ctx) {
			if ask(c) {
				c.W(out, 1)
			} else {
				c.W(out+1, 1)
			}
		})
	}
	return &Node{Size: 1 << depth, Fork: func(c *Ctx) (*Node, *Node) {
		return schedTree(out, depth-1, ask), schedTree(out, depth-1, ask)
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

// TestRecordRefusesScheduleDependent checks that a computation asking for
// its core or its clock is not recorded, and runs as if it never was.
func TestRecordRefusesScheduleDependent(t *testing.T) {
	proc := func(out int64) *Node { return schedTree(out, 4, func(c *Ctx) bool { return c.Proc() == 0 }) }
	now := func(out int64) *Node { return schedTree(out, 4, func(c *Ctx) bool { return c.Now()%2 == 0 }) }
	recordOrRefuse(t, 2, proc, errScheduleDependent)
	recordOrRefuse(t, 2, now, errScheduleDependent)
}

// TestRecordRefusesOverBudget lowers the budget below what a small tree
// records.
func TestRecordRefusesOverBudget(t *testing.T) {
	defer func(b int64) { tapeBudget = b }(tapeBudget)
	tapeBudget = 256
	tree := func(out int64) *Node { return schedTree(out, 6, func(*Ctx) bool { return true }) }
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
