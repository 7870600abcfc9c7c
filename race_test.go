//go:build race

package kite

func init() { raceEnabled = true }
