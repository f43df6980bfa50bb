//go:build !race

package sim

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
