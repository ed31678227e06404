// Package machine implements the multicore model of the paper: p cores with
// private caches of size M words, data organized in blocks of B words, an
// arbitrarily large shared memory, and an invalidation-based coherence
// protocol (Sections 1–2).
//
// Timing model.  Each core has a local clock.  A unit of computation costs
// one time unit; a cache miss costs b time units (the paper's b, "the delay
// due to a single cache miss"); transfers of the same block are serialized
// through the directory, so contended blocks additionally impose block-wait
// time, the cost the paper's block-miss analysis bounds.
//
// Miss taxonomy.  An access that finds the block resident and valid is a hit.
// A miss is classified as:
//   - block miss (coherence miss): the block was resident but had been
//     invalidated by another core's write — the false-sharing cost;
//   - cold/capacity miss: every other miss, i.e. what a sequential execution
//     charged with the same cache would also incur (up to reordering).
package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
)

// Config describes a simulated multicore.
type Config struct {
	P           int   // number of cores
	M           int   // private cache size in words
	B           int   // block size in words (power of two)
	MissLatency int64 // b: time units per cache miss
}

// Validate checks the configuration and fills defaults for zero fields.
func (c *Config) Validate() error {
	if c.P <= 0 {
		return fmt.Errorf("machine: P must be positive, got %d", c.P)
	}
	if c.B <= 0 || c.B&(c.B-1) != 0 {
		return fmt.Errorf("machine: B must be a positive power of two, got %d", c.B)
	}
	if c.M < c.B {
		return fmt.Errorf("machine: M (%d) must be at least B (%d)", c.M, c.B)
	}
	if c.MissLatency <= 0 {
		c.MissLatency = 1
	}
	return nil
}

// Default returns a small tall-cache configuration suitable for tests:
// M = B² or more, per the paper's tall-cache assumption.
func Default(p int) Config {
	return Config{P: p, M: 1024, B: 16, MissLatency: 8}
}

// AccessKind labels the outcome of a memory access.
type AccessKind uint8

const (
	// Hit: block resident and valid.
	Hit AccessKind = iota
	// ColdMiss: block never before touched by this core, or evicted for
	// capacity; the kind of miss a sequential execution also pays.
	ColdMiss
	// BlockMiss: the block was invalidated in this cache by another core's
	// write — the false-sharing cost the paper analyzes.
	BlockMiss
	// UpgradeMiss: write to a block held valid here but also held by other
	// caches; exclusivity must be acquired and other copies invalidated.
	UpgradeMiss
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case Hit:
		return "hit"
	case ColdMiss:
		return "cold"
	case BlockMiss:
		return "block"
	case UpgradeMiss:
		return "upgrade"
	}
	return "?"
}

// ProcStats aggregates per-core counters.
type ProcStats struct {
	Ops            int64 // pure computation steps
	Reads          int64
	Writes         int64
	Hits           int64
	ColdMisses     int64 // cold + capacity
	BlockMisses    int64 // coherence re-fetches after invalidation
	UpgradeMisses  int64 // exclusivity acquisitions on shared blocks
	InvalsSent     int64 // copies this core invalidated elsewhere
	InvalsReceived int64 // copies of this core invalidated by others
	BlockWait      int64 // time spent waiting on serialized block transfers
	IdleTime       int64 // time spent with no task and no steal in flight
	StealTime      int64 // time spent performing steals/attempts
}

// Misses returns all misses that cost a transfer (cold + block + upgrade).
func (s ProcStats) Misses() int64 { return s.ColdMisses + s.BlockMisses + s.UpgradeMisses }

// Add accumulates o into s.
func (s *ProcStats) Add(o ProcStats) {
	s.Ops += o.Ops
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Hits += o.Hits
	s.ColdMisses += o.ColdMisses
	s.BlockMisses += o.BlockMisses
	s.UpgradeMisses += o.UpgradeMisses
	s.InvalsSent += o.InvalsSent
	s.InvalsReceived += o.InvalsReceived
	s.BlockWait += o.BlockWait
	s.IdleTime += o.IdleTime
	s.StealTime += o.StealTime
}

// AccessObserver receives every simulated memory access; used by the trace
// package to measure f(r), L(r) and limited-access properties.
type AccessObserver interface {
	ObserveAccess(proc int, addr mem.Addr, write bool, kind AccessKind, now int64)
}

// Machine is the simulated multicore.
type Machine struct {
	Cfg   Config
	Space *mem.Space
	Dir   *cache.Directory
	Procs []*Proc

	// Observer, if non-nil, sees every access.
	Observer AccessObserver
}

// New builds a machine and its address space.
func New(cfg Config) *Machine {
	if err := (&cfg).Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		Cfg:   cfg,
		Space: mem.NewSpace(cfg.B),
		Dir:   cache.NewDirectory(cfg.P),
	}
	for i := 0; i < cfg.P; i++ {
		m.Procs = append(m.Procs, &Proc{
			ID:      i,
			machine: m,
			cache:   cache.NewSet(cfg.M / cfg.B),
		})
	}
	return m
}

// Total returns the sum of all per-proc stats.
func (m *Machine) Total() ProcStats {
	var t ProcStats
	for _, p := range m.Procs {
		t.Add(p.Stats)
	}
	return t
}

// Makespan returns the largest local clock across cores.
func (m *Machine) Makespan() int64 {
	var mk int64
	for _, p := range m.Procs {
		if p.Now > mk {
			mk = p.Now
		}
	}
	return mk
}

// Proc is one simulated core: a private cache, a local clock and counters.
type Proc struct {
	ID      int
	Now     int64 // local clock
	Stats   ProcStats
	machine *Machine
	cache   *cache.Set
}

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.machine }

// Space returns the shared address space.
func (p *Proc) Space() *mem.Space { return p.machine.Space }

// Op charges n units of pure computation.
func (p *Proc) Op(n int64) {
	p.Now += n
	p.Stats.Ops += n
}

// Idle charges n units of idle time.
func (p *Proc) Idle(n int64) {
	p.Now += n
	p.Stats.IdleTime += n
}

// StealDelay charges n units of steal overhead.
func (p *Proc) StealDelay(n int64) {
	p.Now += n
	p.Stats.StealTime += n
}

// access runs the coherence protocol for one word access and charges time.
func (p *Proc) access(addr mem.Addr, write bool) AccessKind {
	m := p.machine
	b := m.Space.Block(addr)
	present, valid := p.cache.Access(b) // a hit is already at the MRU position

	var kind AccessKind
	switch {
	case present && valid:
		if write {
			// Need exclusivity: invalidate other sharers if any.
			if victims := m.Dir.InvalidateOthers(b, p.ID); victims != nil {
				kind = UpgradeMiss
				p.invalidate(victims, b)
			} else {
				kind = Hit
			}
		} else {
			kind = Hit
		}
	case present && !valid:
		kind = BlockMiss
	default:
		kind = ColdMiss
	}

	switch kind {
	case Hit:
		p.Now++
		p.Stats.Hits++
	case UpgradeMiss:
		// The copy is valid here; acquiring exclusivity serializes on the
		// block like a transfer (ownership moves to this core).
		complete := m.Dir.AcquireTransfer(b, p.Now, m.Cfg.MissLatency)
		p.Stats.BlockWait += complete - p.Now - m.Cfg.MissLatency
		p.Now = complete
		p.Stats.UpgradeMisses++
	default: // ColdMiss or BlockMiss: fetch the block.
		complete := m.Dir.AcquireTransfer(b, p.Now, m.Cfg.MissLatency)
		p.Stats.BlockWait += complete - p.Now - m.Cfg.MissLatency
		p.Now = complete
		if evicted, did := p.cache.Insert(b); did {
			m.Dir.RemoveSharer(evicted, p.ID)
		}
		m.Dir.AddSharer(b, p.ID)
		if kind == BlockMiss {
			p.Stats.BlockMisses++
		} else {
			p.Stats.ColdMisses++
		}
		if write {
			victims := m.Dir.InvalidateOthers(b, p.ID)
			p.invalidate(victims, b)
		}
	}

	if write {
		p.Stats.Writes++
	} else {
		p.Stats.Reads++
	}
	if m.Observer != nil {
		m.Observer.ObserveAccess(p.ID, addr, write, kind, p.Now)
	}
	return kind
}

func (p *Proc) invalidate(victims []int, b int64) {
	for _, v := range victims {
		if p.machine.Procs[v].cache.Invalidate(b) {
			p.Stats.InvalsSent++
			p.machine.Procs[v].Stats.InvalsReceived++
		}
	}
}

// Read performs a simulated read of the word at addr.
func (p *Proc) Read(addr mem.Addr) int64 {
	p.access(addr, false)
	return p.machine.Space.Load(addr)
}

// Write performs a simulated write of the word at addr.
func (p *Proc) Write(addr mem.Addr, v int64) {
	p.access(addr, true)
	p.machine.Space.Store(addr, v)
}

// Touch performs the simulated access a Read (write false) or a Write of
// addr makes — cache, coherence, clock and counters — without moving the
// word: a replayed access has no value to carry.
func (p *Proc) Touch(addr mem.Addr, write bool) { p.access(addr, write) }

// ReadF and WriteF move float64 payloads with simulated accesses.
func (p *Proc) ReadF(addr mem.Addr) float64 {
	p.access(addr, false)
	return p.machine.Space.LoadF(addr)
}

func (p *Proc) WriteF(addr mem.Addr, v float64) {
	p.access(addr, true)
	p.machine.Space.StoreF(addr, v)
}
