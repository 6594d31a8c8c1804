//go:build race

package frontend_test

const raceEnabled = true
