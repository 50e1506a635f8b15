//go:build race

package ooc

// raceEnabled reports that this binary was built with the race detector,
// whose runtime instrumentation allocates on its own schedule: allocation
// assertions skip (but still run the paths) when set.
const raceEnabled = true
