//go:build race

package collective

// raceDetector reports whether the tests run under -race, where
// sync.Pool drops items at random and absolute allocation counts do not
// hold.
const raceDetector = true
