//go:build linux && race

package zpack

func init() { raceEnabled = true }
