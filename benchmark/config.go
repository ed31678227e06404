package main

import "time"

// Frozen measurement choices.
//
// The reference box is a shared host: a neighbour slows memory-bound code by
// 20-60% for seconds at a time, then lets go for seconds (README.md,
// "Sizing").  A median over a run flips between the two regimes from run to
// run; the fastest share of repeated samples (stats.go, fastest) reads the
// undisturbed regime whenever a run holds a quiet spell.  kernels_direct and
// sim_grid, which repeat one operation, read each operation off its fastest
// run.  The shares below are for populations of requests.
const (
	setupReps    = 7    // set-ups per run
	kernelSetups = 3    // the same for kernels_direct, whose set-up takes seconds
	setupShare   = 0.30 // setup_s is the mean of the fastest two of seven, the fastest of three

	smallTailQ = 0.90 // serve_small lat_tail_ms, pooled over the run

	// serve_mixed takes the small class's quantiles per window of the top
	// step and reports the mean of the quietest windowShare of the windows;
	// the large class, too sparse for windows, is read per request shape off
	// the fastest mixedFastShare of its requests.
	mixedTailQ     = 0.75
	window         = time.Second
	windowShare    = 0.25
	mixedFastShare = 0.10
)
