//go:build race

package conv

// raceEnabled reports whether this test binary was built with the race
// detector. Allocation pins are skipped under race: the runtime's
// sync.Pool deliberately drops a random 1-in-4 of Puts when race is
// enabled, so pooled scratch re-allocates nondeterministically.
const raceEnabled = true
