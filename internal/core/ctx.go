package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Ctx is the interface a task body uses to interact with the simulated
// machine: read and write shared memory (driving the cache and coherence
// simulation), access the task's local variables on the execution stack,
// allocate heap space, and charge pure computation time.
//
// A Ctx is only valid for the duration of the closure invocation it is
// passed to; task bodies must not retain it.
type Ctx struct {
	proc *machine.Proc
	eng  *Engine
	rec  *rec
	rc   *recorder // the engine's recorder while Record runs; nil otherwise
	// actionCost counts unit operations (compute + accesses) performed in
	// the current action, for the critical-path clock.
	actionCost int64
}

// R reads the word at addr through the simulated cache.
func (c *Ctx) R(addr mem.Addr) int64 {
	c.actionCost++
	if c.rc != nil {
		c.rc.access(c.rec, addr, false)
	}
	return c.proc.Read(addr)
}

// W writes the word at addr through the simulated cache.
func (c *Ctx) W(addr mem.Addr, v int64) {
	c.actionCost++
	if c.rc != nil {
		c.rc.access(c.rec, addr, true)
	}
	c.proc.Write(addr, v)
}

// RF reads a float64 payload through the simulated cache.
func (c *Ctx) RF(addr mem.Addr) float64 {
	c.actionCost++
	if c.rc != nil {
		c.rc.access(c.rec, addr, false)
	}
	return c.proc.ReadF(addr)
}

// WF writes a float64 payload through the simulated cache.
func (c *Ctx) WF(addr mem.Addr, v float64) {
	c.actionCost++
	if c.rc != nil {
		c.rc.access(c.rec, addr, true)
	}
	c.proc.WriteF(addr, v)
}

// Op charges n units of pure computation (no memory traffic).
func (c *Ctx) Op(n int64) {
	c.actionCost += n
	if c.rc != nil {
		c.rc.op(n)
	}
	c.proc.Op(n)
}

// touch is the access a replayed R, W, RF or WF makes: the same charge
// and simulated access, without moving a word.  No recording sees it: a
// recording stops at a replay's first action (player.bind).
func (c *Ctx) touch(addr mem.Addr, write bool) {
	c.actionCost++
	c.proc.Touch(addr, write)
}

// Local returns the address of local variable i of the current task.  The
// task must have declared at least i+1 locals via Node.Locals.  Locals live
// on the execution stack of the core that started the task, so accesses from
// a usurping core cross caches — the effect Section 3.3 analyzes.
func (c *Ctx) Local(i int) mem.Addr {
	n := int(c.rec.node.Locals)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("core: local %d out of range (node %q declares %d locals)",
			i, c.rec.node.Label, n))
	}
	return c.rec.localBase + int64(i)
}

// Alloc reserves n block-aligned words.  Every allocation of a run, on
// whichever core, comes from the machine's one bump allocator in the
// engine's action order; being block-aligned, no two allocations share a
// block, which is the paper's allocation property.
func (c *Ctx) Alloc(n int64) mem.Addr {
	c.Op(1)
	return c.eng.m.Space.Alloc(n)
}

// AllocArray reserves an n-word typed array, as Alloc does.
func (c *Ctx) AllocArray(n int64) mem.Array {
	c.Op(1)
	return mem.NewArray(c.eng.m.Space, n)
}

// Space returns the shared address space (for address arithmetic only;
// accesses must go through R/W to be simulated).
func (c *Ctx) Space() *mem.Space { return c.eng.m.Space }
