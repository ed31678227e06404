package fj

import (
	"iter"

	"repro/internal/core"
)

// The sim lowering as it was before coroutines were pooled, kept verbatim
// but for names: a fresh iter.Pull coroutine, Ctx and three core.Nodes per
// fj task.  It is the reference the pooled lowering must be
// indistinguishable from (lowering_test.go).  The reference drives the same
// Ctx.Fork/Join as the pooled lowering: a refTask's simTask carries only the
// yield and the engine context that Ctx.suspend reads.

// refTask is the coroutine of one running fj task.
type refTask struct {
	run  *refRun
	st   *simTask // yield and cc, for Ctx.suspend
	next func() (simEvt, bool)
	stop func()
}

// refRun tracks every live coroutine of one fj computation so a panic can
// tear them all down.
type refRun struct {
	live map[*refTask]struct{}
	dead bool
}

func (run *refRun) teardown() {
	run.dead = true
	live := run.live
	run.live = map[*refTask]struct{}{}
	for rf := range live {
		rf.stop()
	}
}

func startRefTask(run *refRun, fn func(*Ctx)) *refTask {
	rf := &refTask{run: run, st: &simTask{}}
	run.live[rf] = struct{}{}
	rf.next, rf.stop = iter.Pull(func(yield func(simEvt) bool) {
		rf.st.yield = yield
		defer func() {
			if run.dead {
				recover()
			}
		}()
		c := &Ctx{st: rf.st, sc: rf.st.cc}
		fn(c)
		if c.open != 0 {
			panic("fj: task returned with unjoined forks")
		}
	})
	return rf
}

func (rf *refTask) resumeWith(cc *core.Ctx) (evt simEvt, ok bool) {
	rf.st.cc = cc
	unwinding := true
	defer func() {
		if !ok {
			delete(rf.run.live, rf)
		}
		if unwinding {
			rf.run.teardown()
		}
	}()
	evt, ok = rf.next()
	unwinding = false
	return evt, ok
}

// refSimNode is SimNode under the reference lowering.
func refSimNode(size int64, label string, fn func(*Ctx)) *core.Node {
	return refNode(&refRun{live: map[*refTask]struct{}{}}, size, label, fn)
}

func refNode(run *refRun, size int64, label string, fn func(*Ctx)) *core.Node {
	var rf *refTask
	return &core.Node{
		Size:  size,
		Label: label,
		Seq: func(cc *core.Ctx, stage int) *core.Node {
			if stage == 0 {
				rf = startRefTask(run, fn)
			}
			return refNextRegion(rf, cc, 0)
		},
	}
}

func refSegmentNode(rf *refTask, level int) *core.Node {
	return &core.Node{
		Size:  1,
		Label: "fj·seg",
		Seq: func(cc *core.Ctx, stage int) *core.Node {
			return refNextRegion(rf, cc, level)
		},
	}
}

func refNextRegion(rf *refTask, cc *core.Ctx, level int) *core.Node {
	for {
		evt, ok := rf.resumeWith(cc)
		switch {
		case !ok:
			return nil
		case evt.fn != nil:
			return refPairNode(rf, evt.fn, evt.open)
		case evt.open < level:
			return nil
		}
	}
}

func refPairNode(rf *refTask, fn func(*Ctx), level int) *core.Node {
	return &core.Node{
		Size:  1,
		Label: "fj·fork",
		Fork: func(*core.Ctx) (*core.Node, *core.Node) {
			return refSegmentNode(rf, level), refNode(rf.run, 1, "fj·task", fn)
		},
	}
}
