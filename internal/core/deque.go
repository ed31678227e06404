package core

// deque is a per-proc task queue with the orientation of Section 2: the
// owner adds forked tasks to the bottom and resumes from the bottom, while
// thieves steal from the top (head), which by Observation 4.1 always holds
// the task with the highest priority (smallest depth).
type deque struct {
	items []*rec
	head  int
}

func (d *deque) len() int { return len(d.items) - d.head }

func (d *deque) push(r *rec) { d.items = append(d.items, r) }

// popBottom removes the most recently pushed task (owner side).
func (d *deque) popBottom() (*rec, bool) {
	if d.len() == 0 {
		return nil, false
	}
	r := d.items[len(d.items)-1]
	d.items[len(d.items)-1] = nil
	d.items = d.items[:len(d.items)-1]
	d.normalize()
	return r, true
}

// stealTop removes the oldest task (thief side).
func (d *deque) stealTop() (*rec, bool) {
	if d.len() == 0 {
		return nil, false
	}
	r := d.items[d.head]
	d.items[d.head] = nil
	d.head++
	d.normalize()
	return r, true
}

// peekTop returns the head task without removing it.
func (d *deque) peekTop() (*rec, bool) {
	if d.len() == 0 {
		return nil, false
	}
	return d.items[d.head], true
}

// normalize reclaims the stolen prefix once it outgrows the live part, so a
// proc that keeps pushing while it is stolen from holds O(len) slots, not one
// per task it ever pushed.  Each compaction moves fewer items than the steals
// since the last one, so steals stay O(1) amortized.
func (d *deque) normalize() {
	if d.head > len(d.items)/2 {
		n := copy(d.items, d.items[d.head:])
		clear(d.items[n:])
		d.items = d.items[:n]
		d.head = 0
	}
}
