//go:build !race

package devcycle

const raceEnabled = false
