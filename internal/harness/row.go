package harness

import (
	"fmt"
	"math"
	"strconv"
)

// Row is the typed record one grid cell produces per measurement — the flat,
// diffable unit every emitter (text, CSV, JSON lines) renders.  Identity
// fields come first (they key aggregation across repeats); then the
// simulator's paper quantities; then experiment-specific derived values.
//
// Aux1..Aux3 carry per-experiment extras (EXPERIMENTS.md documents the
// meaning for each EXP id).  Volatile marks rows whose measurements depend on
// wall-clock scheduling (EXP13, EXP16); Normalize zeroes those plus WallNS so row
// sets can be compared byte-for-byte across runs and parallelism levels.
type Row struct {
	Exp    string
	Algo   string
	N      int64
	P      int
	M      int
	B      int
	Sched  string
	Padded bool
	Repeat int
	Seed   uint64

	Makespan         int64
	Work             int64
	CritPath         int64
	CacheMisses      int64 // cold + capacity (the serial-charged misses)
	BlockMisses      int64 // coherence re-fetches (false sharing)
	UpgradeMisses    int64
	BlockWait        int64
	Transfers        int64 // total directory block transfers (Definition 2.2)
	Steals           int64
	StealAttempts    int64
	MaxStealsPerPrio int64
	DistinctPrios    int64
	Usurpations      int64
	StackHighWater   int64
	IdleTime         int64

	Bound float64 // the paper formula value the row is checked against (0 = none)
	Ratio float64 // measured/bound or the experiment's headline ratio (may be NaN)
	Aux1  float64
	Aux2  float64
	Aux3  float64

	WallNS   int64 // wall-clock nanoseconds for this cell's measurement
	Volatile bool  // measurements depend on real scheduling, not just the seed
	Note     string
}

// Key returns the aggregation identity: everything that names a grid cell
// except the repeat index and seed.
func (r Row) Key() string {
	return fmt.Sprintf("%s|%s|%d|%d|%d|%d|%s|%v|%s",
		r.Exp, r.Algo, r.N, r.P, r.M, r.B, r.Sched, r.Padded, r.Note)
}

// Normalize returns a copy of rows with wall-clock fields zeroed everywhere
// and all measurement fields zeroed on Volatile rows.  Normalized row sets
// from the same grid and seed are byte-identical regardless of -parallel.
func Normalize(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		r.WallNS = 0
		if r.Volatile {
			r.Makespan, r.Work, r.CritPath = 0, 0, 0
			r.CacheMisses, r.BlockMisses, r.UpgradeMisses, r.BlockWait = 0, 0, 0, 0
			r.Transfers = 0
			r.Steals, r.StealAttempts, r.MaxStealsPerPrio = 0, 0, 0
			r.DistinctPrios, r.Usurpations, r.StackHighWater, r.IdleTime = 0, 0, 0, 0
			r.Bound, r.Ratio, r.Aux1, r.Aux2, r.Aux3 = 0, 0, 0, 0, 0
		}
		out[i] = r
	}
	return out
}

// kind tags a column's value type in the schema table.
type kind int

const (
	kString kind = iota
	kInt
	kUint
	kFloat
	kBool
)

// column is one entry in the Row schema: a stable name plus a typed
// accessor.  The table drives both emitters, so the schema cannot drift
// between formats.
type column struct {
	name string
	kind kind
	get  func(*Row) any
}

func columns() []column {
	return []column{
		{"exp", kString, func(r *Row) any { return r.Exp }},
		{"algo", kString, func(r *Row) any { return r.Algo }},
		{"n", kInt, func(r *Row) any { return r.N }},
		{"p", kInt, func(r *Row) any { return int64(r.P) }},
		{"m", kInt, func(r *Row) any { return int64(r.M) }},
		{"b", kInt, func(r *Row) any { return int64(r.B) }},
		{"sched", kString, func(r *Row) any { return r.Sched }},
		{"padded", kBool, func(r *Row) any { return r.Padded }},
		{"repeat", kInt, func(r *Row) any { return int64(r.Repeat) }},
		{"seed", kUint, func(r *Row) any { return r.Seed }},
		{"makespan", kInt, func(r *Row) any { return r.Makespan }},
		{"work", kInt, func(r *Row) any { return r.Work }},
		{"critpath", kInt, func(r *Row) any { return r.CritPath }},
		{"cache_misses", kInt, func(r *Row) any { return r.CacheMisses }},
		{"block_misses", kInt, func(r *Row) any { return r.BlockMisses }},
		{"upgrade_misses", kInt, func(r *Row) any { return r.UpgradeMisses }},
		{"block_wait", kInt, func(r *Row) any { return r.BlockWait }},
		{"transfers", kInt, func(r *Row) any { return r.Transfers }},
		{"steals", kInt, func(r *Row) any { return r.Steals }},
		{"steal_attempts", kInt, func(r *Row) any { return r.StealAttempts }},
		{"max_steals_per_prio", kInt, func(r *Row) any { return r.MaxStealsPerPrio }},
		{"distinct_prios", kInt, func(r *Row) any { return r.DistinctPrios }},
		{"usurpations", kInt, func(r *Row) any { return r.Usurpations }},
		{"stack_high_water", kInt, func(r *Row) any { return r.StackHighWater }},
		{"idle_time", kInt, func(r *Row) any { return r.IdleTime }},
		{"bound", kFloat, func(r *Row) any { return r.Bound }},
		{"ratio", kFloat, func(r *Row) any { return r.Ratio }},
		{"aux1", kFloat, func(r *Row) any { return r.Aux1 }},
		{"aux2", kFloat, func(r *Row) any { return r.Aux2 }},
		{"aux3", kFloat, func(r *Row) any { return r.Aux3 }},
		{"wall_ns", kInt, func(r *Row) any { return r.WallNS }},
		{"volatile", kBool, func(r *Row) any { return r.Volatile }},
		{"note", kString, func(r *Row) any { return r.Note }},
	}
}

// Header returns the column names in schema order.
func Header() []string {
	cols := columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.name
	}
	return names
}

// formatValue renders a typed column value for CSV ("NaN"/"+Inf"/"-Inf" for
// non-finite floats; encoding/csv handles quoting).
func formatValue(k kind, v any) string {
	switch k {
	case kString:
		return v.(string)
	case kInt:
		return strconv.FormatInt(v.(int64), 10)
	case kUint:
		return strconv.FormatUint(v.(uint64), 10)
	case kBool:
		return strconv.FormatBool(v.(bool))
	default:
		return strconv.FormatFloat(v.(float64), 'g', -1, 64)
	}
}

// isFinite reports whether f is an ordinary float JSON can carry.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
