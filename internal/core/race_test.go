//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops items at random,
// so fmt allocates where it otherwise reuses — allocation pins skip.
const raceEnabled = true
