//go:build !race

package collective

const raceDetector = false
