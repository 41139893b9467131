//go:build !race

package bruck

const raceDetector = false
