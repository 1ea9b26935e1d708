//go:build race

package bmc

func init() { raceEnabled = true }
