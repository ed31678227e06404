package core

import (
	"fmt"

	"repro/internal/mem"
)

// execStack models one core's execution stack in simulated memory
// (Section 3.3).  Frames are *not* block aligned: adjacent frames may share a
// block, which is precisely the source of the stack block misses the paper
// bounds (Lemma 3.1) and that padding (Definition 3.3) mitigates.
//
// Frames are pushed when a task starts on this core and logically freed when
// the task completes.  Because a task's subtree may complete on a different
// core (usurpation), frees can arrive out of LIFO order; the allocator marks
// such frames freed and reclaims them lazily when they surface at the top.
type execStack struct {
	region mem.Region
	top    int64 // offset of first unused word
	frames []stackFrame
	// highWater tracks the maximum extent used, for reporting.
	highWater int64
}

type stackFrame struct {
	off, len int64
	freed    bool
}

func newExecStack(region mem.Region) *execStack {
	return &execStack{region: region}
}

// noFrame is the frame handle of a task that reserved no stack words.
const noFrame = -1

// alloc reserves n words and returns the frame's handle — its position in
// frames, fixed until the frame is reclaimed — and the base address.
func (s *execStack) alloc(n int64) (int, mem.Addr) {
	if s.top+n > s.region.Len {
		panic(fmt.Sprintf("core: execution stack overflow (%d + %d > %d words); raise stackWords",
			s.top, n, s.region.Len))
	}
	f := stackFrame{off: s.top, len: n}
	s.frames = append(s.frames, f)
	s.top += n
	if s.top > s.highWater {
		s.highWater = s.top
	}
	return len(s.frames) - 1, s.region.Base + f.off
}

// free marks frame f freed and pops any suffix of freed frames.
func (s *execStack) free(f int) {
	s.frames[f].freed = true
	for len(s.frames) > 0 {
		last := s.frames[len(s.frames)-1]
		if !last.freed {
			break
		}
		s.frames = s.frames[:len(s.frames)-1]
		s.top = last.off
	}
}

// depth returns the number of live (pushed, not yet reclaimed) frames.
func (s *execStack) depth() int { return len(s.frames) }
