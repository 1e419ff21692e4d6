//go:build pmevodebug

package evo

// debugRecycle: this build checks, before every generation, that no
// mapping about to be recycled as a child is still held by a survivor
// (see island.checkRecycle).
const debugRecycle = true
