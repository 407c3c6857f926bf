//go:build !race

package conv

// raceEnabled reports whether this test binary was built with the race
// detector; see race_test.go for why allocation pins skip under race.
const raceEnabled = false
