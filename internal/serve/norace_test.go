//go:build !race

package serve_test

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
