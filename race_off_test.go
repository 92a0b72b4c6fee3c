//go:build !race

package cds

const raceEnabled = false
