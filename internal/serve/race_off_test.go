//go:build !race

package serve

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
