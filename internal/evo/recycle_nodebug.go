//go:build !pmevodebug

package evo

// debugRecycle gates the recycle guard in island.evolve. The release
// build compiles the check away; build with `-tags pmevodebug` (CI runs
// the core packages this way) to catch a child overwriting a survivor.
const debugRecycle = false
