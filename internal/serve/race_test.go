//go:build race

package serve_test

// raceDetector reports a -race build, whose sync.Pool drops a share of
// the buffers net/http returns to it, so a request allocates a varying few
// more objects.
const raceDetector = true
