//go:build !race

package provider

const raceEnabled = false
