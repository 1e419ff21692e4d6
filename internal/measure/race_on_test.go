//go:build race

package measure

// raceEnabled: the race detector instruments allocations, so
// allocation-count assertions are meaningless under -race.
const raceEnabled = true
