// Package boolframetest seeds deliberate []bool frame buffers for the
// boolframe golden test, plus the sanctioned escape hatch: a //lint:allow
// suppression.
package boolframetest

// runFrame rebuilds a byte-per-slot frame buffer; every []bool type
// expression is a violation.
func runFrame(w int) []bool { // want `\[\]bool on the frame observation path`
	busy := make([]bool, w) // want `\[\]bool on the frame observation path`
	return busy
}

// frameField smuggles the buffer into a struct.
type frameField struct {
	slots []bool // want `\[\]bool on the frame observation path`
}

// frames is a nested slice: one finding at the outer type, not two.
var frames [][]bool // want `\[\]bool on the frame observation path`

// fixedFlags is a fixed-size array, not a frame buffer: arrays of known
// length are out of scope.
var fixedFlags [4]bool

// notBools is a slice of a named bool type, which cannot be a frame buffer
// the channel package would produce.
type tristate bool

var notBools []tristate

// coverageFlags is the sanctioned escape hatch: a reasoned suppression
// keeps a deliberate non-frame bool slice visible but unflagged.
var coverageFlags = make([]bool, 8) //lint:allow boolframe golden-test fixture for trailing suppression
