//go:build !race

package amr

// raceEnabled: see race_test.go.
const raceEnabled = false
