//go:build race

package sqlclean_test

func init() { raceEnabled = true }
